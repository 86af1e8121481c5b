use mgopt_demo::helper::Widget;

#[test]
fn widget_builds() {
    assert_eq!(Widget::new().0, 1);
}

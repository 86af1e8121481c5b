//! Reached by its own unit tests and an integration test, nothing else.

pub struct Widget(pub u32);

impl Widget {
    pub fn new() -> Self {
        Widget(1)
    }
}

#[cfg(test)]
mod tests {
    use super::Widget;

    #[test]
    fn builds() {
        assert_eq!(Widget::new().0, 1);
    }
}

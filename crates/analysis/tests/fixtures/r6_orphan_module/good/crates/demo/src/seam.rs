//! Only its own tests reach it; the suppression in `lib.rs` keeps it.

pub fn parse_trace(text: &str) -> Vec<f64> {
    text.lines().filter_map(|l| l.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_lines() {
        assert_eq!(super::parse_trace("1\n2\n"), [1.0, 2.0]);
    }
}

//! Reached through a grouped `use`.

pub fn scale(x: f64) -> f64 {
    2.0 * x
}

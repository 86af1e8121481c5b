//! Reached through the crate root's re-export of its type.

pub struct Gauge(pub f64);

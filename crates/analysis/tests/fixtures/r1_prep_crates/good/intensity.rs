// mgopt-lint-fixture: crate=gridcarbon
use std::collections::BTreeSet;

pub fn seeded_intensity(base_g_per_kwh: f64, seed: u64) -> f64 {
    let regions: BTreeSet<&str> = ["caiso", "ercot"].into_iter().collect();
    base_g_per_kwh * (1.0 + regions.len() as f64 * (seed % 7) as f64 * 1e-3)
}

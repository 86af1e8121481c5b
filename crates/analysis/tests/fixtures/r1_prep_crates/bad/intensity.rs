// mgopt-lint-fixture: crate=gridcarbon
// The prepared-input crates are bit-pinned too: a carbon-intensity
// series seeded from the clock or summed in hash order drifts per run.
use std::collections::HashSet;
use std::time::SystemTime;

pub fn jittered_intensity(base_g_per_kwh: f64) -> f64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let regions: HashSet<&str> = ["caiso", "ercot"].into_iter().collect();
    base_g_per_kwh * (1.0 + regions.len() as f64 * f64::from(nanos) * 1e-12)
}

//! The three closed-loop workloads and the request frames they send.
//!
//! Every search seed and scenario seed is derived from the workload seed
//! given on the command line, so one seed always produces the same frame
//! stream, byte for byte. Frames are addressed by `(connection, j)`: the
//! `j`-th study a connection sends.

use mgopt_core::wire::{
    encode_request, FleetSpec, Request, RequestFrame, StudyBudget, StudyRequest, WIRE_VERSION,
};
use mgopt_core::FleetScenario;
use mgopt_microgrid::CompositionSpace;

/// Distinct search seeds the warm workloads cycle through.
const WARM_POOL: u64 = 32;
/// Distinct inline fleets each `cold_prep` connection cycles through. The
/// daemon's prepared cache holds [`CACHE_CAPACITY`] members, i.e. 4
/// two-site fleets; a connection only revisits a fleet after 6 of its own,
/// so under LRU every member misses whatever the other connection does.
const COLD_FLEETS_PER_CONN: u64 = 6;
/// The daemon's prepared-cache capacity (members), set explicitly so the
/// `cold_prep` miss guarantee does not depend on the daemon's default.
pub const CACHE_CAPACITY: usize = 8;
/// Peak concurrent grid-import cap of `capped_stream`, kW. It binds: the
/// all-baseline plan imports about 5 MW at its fleet peak.
pub const CAPPED_PEAK_KW: f64 = 3_500.0;
/// Fixed hypervolume reference point `[fleet tCO2/day, embodied tCO2]`
/// for `front_hv`, beyond every plan of both spaces used: the all-baseline
/// plan operates at about 24.9 t/day and the largest plan embodies
/// 78,760 t.
pub const HV_REFERENCE: [f64; 2] = [30.0, 90_000.0];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm prepared cache, paper budget: the chunk-walk kernel dominates.
    WarmSearch,
    /// Every fleet misses the prepared cache: scenario prep dominates.
    ColdPrep,
    /// Peak-capped, streamed studies queueing behind the in-flight cap.
    CappedStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmSearch,
        Workload::ColdPrep,
        Workload::CappedStream,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSearch => "warm_search",
            Workload::ColdPrep => "cold_prep",
            Workload::CappedStream => "capped_stream",
        }
    }

    /// Studies each of `connections` keeps outstanding (closed loop)
    /// against a daemon admitting `in_flight_cap` at once. On
    /// `capped_stream` they keep more outstanding than the cap admits, on
    /// any core count, so some studies always queue.
    pub fn outstanding(self, in_flight_cap: usize, connections: usize) -> usize {
        match self {
            Workload::WarmSearch | Workload::ColdPrep => 1,
            Workload::CappedStream => in_flight_cap / connections.max(1) + 2,
        }
    }

    /// Whether every timed study must hit the daemon's prepared cache
    /// (`true`) or miss it (`false`).
    pub fn expects_cache_hits(self) -> bool {
        !matches!(self, Workload::ColdPrep)
    }

    /// Whether studies must wait for admission on this workload.
    pub fn expects_queueing(self) -> bool {
        matches!(self, Workload::CappedStream)
    }

    /// The `j`-th timed study of connection `conn`.
    pub fn study(self, seed: u64, connections: usize, conn: usize, j: u64) -> StudyRequest {
        let global = j * connections as u64 + conn as u64;
        match self {
            Workload::WarmSearch => {
                paper_study(derive(seed, "warm.search", global % WARM_POOL), false, None)
            }
            Workload::CappedStream => paper_study(
                derive(seed, "capped.search", global % WARM_POOL),
                true,
                Some(CAPPED_PEAK_KW),
            ),
            Workload::ColdPrep => {
                let fleet = conn as u64 * COLD_FLEETS_PER_CONN + j % COLD_FLEETS_PER_CONN;
                cold_study(
                    derive(seed, "cold.fleet", fleet),
                    derive(seed, "cold.search", fleet),
                )
            }
        }
    }

    /// The `k`-th set-up study. Its seeds lie outside the timed pool, so a
    /// `cold_prep` warm-up never pre-fills a timed fleet.
    pub fn warmup(self, seed: u64, k: u64) -> StudyRequest {
        match self {
            Workload::WarmSearch => paper_study(derive(seed, "warm.warmup", k), false, None),
            Workload::CappedStream => {
                paper_study(derive(seed, "capped.warmup", k), true, Some(CAPPED_PEAK_KW))
            }
            Workload::ColdPrep => cold_study(
                derive(seed, "cold.warmup.fleet", k),
                derive(seed, "cold.warmup.search", k),
            ),
        }
    }
}

/// The encoded request line (no newline) for a study under id `id`.
pub fn study_line(id: &str, study: StudyRequest) -> String {
    encode_request(&RequestFrame {
        v: WIRE_VERSION,
        id: id.to_string(),
        req: Request::Study(study),
    })
}

/// The id of the `j`-th timed study on connection `conn`.
pub fn study_id(conn: usize, j: u64) -> String {
    format!("c{conn}-{j}")
}

/// `Preset "paper"`: 1,089 compositions per site, population 50, 350 trials.
fn paper_study(search_seed: u64, stream: bool, peak_cap_kw: Option<f64>) -> StudyRequest {
    StudyRequest {
        fleet: FleetSpec::Preset("paper".into()),
        space: None,
        objectives: None,
        budget: StudyBudget {
            population_size: 50,
            max_trials: 350,
            seed: search_seed,
        },
        peak_cap_kw,
        stream,
    }
}

/// An inline two-site paper fleet with its own scenario seed and the
/// 27-point space per site; population 8, 24 trials.
fn cold_study(scenario_seed: u64, search_seed: u64) -> StudyRequest {
    let mut fleet = FleetScenario::paper();
    for m in &mut fleet.members {
        m.scenario.seed = scenario_seed;
        m.scenario.space = CompositionSpace::tiny();
    }
    StudyRequest {
        fleet: FleetSpec::Inline(fleet),
        space: None,
        objectives: None,
        budget: StudyBudget {
            population_size: 8,
            max_trials: 24,
            seed: search_seed,
        },
        peak_cap_kw: None,
        stream: false,
    }
}

/// Derive a sub-seed for `tag` and index `k` from the workload seed.
pub fn derive(seed: u64, tag: &str, k: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(seed ^ h ^ splitmix64(k))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64) -> Vec<String> {
        let mut lines = Vec::new();
        for k in 0..2 {
            lines.push(study_line(&format!("w{k}"), w.warmup(seed, k)));
        }
        for j in 0..40 {
            for conn in 0..2 {
                lines.push(study_line(&study_id(conn, j), w.study(seed, 2, conn, j)));
            }
        }
        lines
    }

    #[test]
    fn same_seed_same_frames_byte_for_byte() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name());
            assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn frames_parse_and_validate() {
        for w in Workload::ALL {
            for line in stream(w, 3) {
                let frame = mgopt_core::wire::parse_request(&line).expect("frame parses");
                let Request::Study(s) = frame.req else {
                    panic!("not a study")
                };
                s.resolved_scenario().expect("study is runnable");
            }
        }
    }

    #[test]
    fn cold_fleets_outnumber_the_cache_per_connection() {
        let w = Workload::ColdPrep;
        let seeds = |conn: usize| -> Vec<u64> {
            (0..COLD_FLEETS_PER_CONN)
                .map(|j| match w.study(5, 2, conn, j).fleet {
                    FleetSpec::Inline(f) => f.members[0].scenario.seed,
                    FleetSpec::Preset(_) => unreachable!(),
                })
                .collect()
        };
        let (a, b) = (seeds(0), seeds(1));
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            2 * COLD_FLEETS_PER_CONN as usize,
            "fleets are distinct"
        );
        // Two members per fleet: a connection's own cycle alone overflows
        // the cache before it revisits a fleet.
        assert!(COLD_FLEETS_PER_CONN as usize > CACHE_CAPACITY / 2);
        // The fleet changes on every request of a connection.
        for j in 0..12 {
            assert_ne!(w.study(5, 2, 0, j), w.study(5, 2, 0, j + 1));
        }
        // Warm-up fleets never coincide with timed ones.
        let warm = match w.warmup(5, 0).fleet {
            FleetSpec::Inline(f) => f.members[0].scenario.seed,
            FleetSpec::Preset(_) => unreachable!(),
        };
        assert!(!all.contains(&warm));
    }

    #[test]
    fn cold_frames_are_inline_and_small() {
        let line = study_line("c0-0", Workload::ColdPrep.study(1, 2, 0, 0));
        assert!(line.contains("\"Inline\""));
        assert!(line.len() < 4_096, "{} bytes", line.len());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn only_capped_stream_outruns_the_cap() {
        for cap in 1..=64 {
            let connections = cap.min(2);
            for w in Workload::ALL {
                let in_flight = connections * w.outstanding(cap, connections);
                assert_eq!(
                    in_flight > cap,
                    w.expects_queueing(),
                    "{} at cap {cap}",
                    w.name()
                );
            }
        }
    }
}

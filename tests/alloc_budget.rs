//! Heap allocations per paper-budget study, held under a ceiling.
//!
//! A counting global allocator tallies every allocation and reallocation
//! in this test process. The one test drives the daemon over the
//! in-process pipe with the two study shapes of the merge-gate benchmark:
//! a warm, unstreamed paper study (population 50, 350 trials) and a
//! streamed paper study under a 3.5 MW peak cap. Each runs twice with the
//! same seeds. The first run fills the sites' result tables and the
//! plan-peak memo; the second is counted from the moment its `Study`
//! line is written to the moment its `Done` line is read. The client
//! reads lines into a buffer reserved up front and never decodes them,
//! so the count is the daemon's: request parsing, the search, the plan
//! points, frame encoding and the pipe's writes.
//!
//! There is one `#[test]`, so no other test allocates while a study is
//! counted. Each ceiling is the count when it was set plus 10%; a change
//! that allocates more per study must say why and raise it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use microgrid_opt::core::wire::{
    encode_request, FleetSpec, Request, RequestFrame, StudyBudget, StudyRequest, WIRE_VERSION,
};
use microgrid_opt::server::{pipe, Server, ServerConfig};

/// Allocations and reallocations so far, process-wide.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator with the caller's
// own arguments; the counter is only an atomic increment beside it.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded as is; see the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarded as is; see the impl.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc_zeroed` requires.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwarded as is; see the impl.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`, as the
        // caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwarded as is; see the impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ceiling for the warm, unstreamed paper study: 3,144 allocations when
/// set (4,742 while frames were encoded through a value tree and plan
/// points were built every generation).
const WARM_CEILING: u64 = 3_458;
/// Ceiling for the streamed paper study under a 3.5 MW cap: 3,975 when
/// set (7,553 before the same two changes).
const CAPPED_CEILING: u64 = 4_372;

fn paper_study(seed: u64, stream: bool, peak_cap_kw: Option<f64>) -> String {
    let frame = RequestFrame {
        v: WIRE_VERSION,
        id: format!("s{seed}"),
        req: Request::Study(StudyRequest {
            fleet: FleetSpec::Preset("paper".into()),
            space: None,
            objectives: None,
            budget: StudyBudget {
                population_size: 50,
                max_trials: 350,
                seed,
            },
            peak_cap_kw,
            stream,
        }),
    };
    encode_request(&frame) + "\n"
}

/// Write one study line and read lines until its `Done`, returning how
/// many allocations the process made in between.
fn count_study<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    line: &mut String,
    request: &str,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    writer.write_all(request.as_bytes()).unwrap();
    loop {
        line.clear();
        assert!(
            reader.read_line(line).unwrap() > 0,
            "daemon closed the pipe"
        );
        assert!(
            !line.contains(r#""resp":{"Error""#) && !line.contains(r#""resp":{"Cancelled""#),
            "study failed: {line}"
        );
        if line.contains(r#""resp":{"Done""#) {
            return ALLOCATIONS.load(Ordering::SeqCst) - before;
        }
    }
}

#[test]
fn paper_studies_stay_under_their_allocation_ceilings() {
    let server = Arc::new(Server::new(ServerConfig::default()));
    let (client, server_end) = pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::with_capacity(1 << 16, client.reader);
    let mut line = String::with_capacity(1 << 20);

    let warm = paper_study(1_000, false, None);
    let capped = paper_study(1_001, true, Some(3_500.0));
    let mut run = |request: &str| count_study(&mut reader, &mut writer, &mut line, request);
    run(&warm);
    run(&capped);
    let warm_count = run(&warm);
    let capped_count = run(&capped);
    eprintln!("allocations per study: warm {warm_count}, capped {capped_count}");

    drop(writer);
    join.join().unwrap().unwrap();
    assert!(
        warm_count <= WARM_CEILING,
        "warm paper study made {warm_count} allocations, ceiling {WARM_CEILING}"
    );
    assert!(
        capped_count <= CAPPED_CEILING,
        "capped streamed paper study made {capped_count} allocations, ceiling {CAPPED_CEILING}"
    );
}

//! Hot-path allocation budget guard.
//!
//! Throughput is executions per second, and the silent way to lose it is
//! heap traffic creeping back into the per-event hot path. This test
//! installs [`nodefz_check::CountingAlloc`] as the global allocator, runs
//! the campaign hot path ([`nodefz_campaign::RunContext::fuzz_once`]) on
//! the smallest app, and asserts the steady-state allocation cost per
//! dispatched callback stays under a fixed budget — so a regression fails
//! CI instead of eroding the throughput trajectory.

use nodefz_campaign::RunContext;
use nodefz_check::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Maximum steady-state allocations per dispatched callback.
///
/// Every dispatched callback is a boxed closure (`Job = Box<dyn FnOnce>`),
/// so ~1 allocation per event is inherent to the runtime's design; the
/// budget adds headroom for per-run bookkeeping (trace snapshot, report)
/// amortized over the run's events. Measured steady state is 2.56
/// allocs/event (9,523 allocs over 3,721 events); 3 is the tripwire.
const ALLOCS_PER_EVENT_BUDGET: f64 = 3.0;

#[test]
fn fuzzed_run_stays_within_allocation_budget() {
    let mut ctx = RunContext::new();
    // Warm up: let every pooled buffer reach steady-state capacity.
    let mut warm_events = 0u64;
    for seed in 0..20 {
        warm_events += ctx.fuzz_once("GHO", 0, seed).dispatched;
    }
    assert!(warm_events > 0, "warmup dispatched nothing");

    let before = ALLOC.stats();
    let mut events = 0u64;
    const RUNS: u64 = 50;
    for seed in 100..100 + RUNS {
        events += ctx.fuzz_once("GHO", 0, seed).dispatched;
    }
    let during = ALLOC.stats().since(&before);

    assert!(events > 0, "measured runs dispatched nothing");
    let per_event = during.allocs as f64 / events as f64;
    assert!(
        per_event <= ALLOCS_PER_EVENT_BUDGET,
        "hot path allocates too much: {:.2} allocs/event over {RUNS} runs \
         ({} allocs, {} events, {} bytes) — budget is {ALLOCS_PER_EVENT_BUDGET}",
        per_event,
        during.allocs,
        events,
        during.bytes,
    );
}

//! Chaos mode, pinned differentially: under any *recoverable* seeded
//! fault schedule — worker crashes (supervised requeue + respawn),
//! stalls (supersede), slow shards, swap-install failures, all racing
//! hot-swaps — every admitted batch is answered exactly once, and every
//! answer equals `ReachIndex::query` on the one generation the batch
//! pinned. A lost batch hangs the harness, a double-answered one trips
//! the double-finish panic, and a miscounted one fails the
//! `submitted == answered + rejected + shed` balance asserted at
//! shutdown. The property sweep covers fault seeds × 1/2/4/8 workers ×
//! direct-vs-retrying clients.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use reach_datasets::{edge_fraction_slices, standard_mixes, workload};
use reach_graph::VertexId;
use reach_index::ReachIndex;
use reach_serve::testing::{closure_index, run_chaos_consistency, ChaosHarnessConfig};
use reach_serve::{RetryPolicy, ServeFaultPlan};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One evolving-graph sequence (3 cumulative edge slices of a hierarchy
/// graph) plus a batched workload over its densest slice.
#[allow(clippy::type_complexity)]
fn fixture(workload_seed: u64) -> (Vec<Arc<ReachIndex>>, Vec<Vec<(VertexId, VertexId)>>) {
    let g = reach_datasets::generators::hierarchy(40, 120, 0.9, 77);
    let slices = edge_fraction_slices(&g, 3, 7);
    let indices: Vec<Arc<ReachIndex>> = slices.iter().map(closure_index).collect();
    let (_, mix) = standard_mixes()[workload_seed as usize % 3];
    let queries = workload(slices.last().unwrap(), mix, 30 * 10, workload_seed);
    let batches = queries.chunks(10).map(<[_]>::to_vec).collect();
    (indices, batches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: answers stay bit-identical to the pinned
    /// generation's index and the exactly-once ledger balances, whatever
    /// recoverable fault schedule the seed draws and however the
    /// supervisor's recoveries interleave with submissions and swaps.
    #[test]
    fn no_lost_or_double_answers_under_any_recoverable_schedule(
        fault_seed in 0u64..1_000,
        workers_idx in 0usize..4,
        with_retry in any::<bool>(),
    ) {
        let workers = WORKERS[workers_idx];
        let (indices, batches) = fixture(fault_seed);
        let plan = ServeFaultPlan::new(fault_seed)
            .with_worker_crashes(0.10, 6)
            .with_worker_stalls(0.05, Duration::from_millis(15), 3)
            .with_slow_shard(0, Duration::from_micros(100))
            .with_swap_failures(0.3);
        let report = run_chaos_consistency(
            &indices,
            &batches,
            &ChaosHarnessConfig {
                workers,
                swap_every: 4,
                submitters: 2,
                fault_plan: plan,
                retry: with_retry.then(|| RetryPolicy::new(fault_seed)),
                ..ChaosHarnessConfig::default()
            },
        );
        prop_assert_eq!(report.batches, 30);
        prop_assert_eq!(report.answers_checked, 30 * 10);
        // Every batch succeeded exactly once (retrying clients may add
        // rejected attempts on top, never answered ones).
        prop_assert!(report.stats.answered >= 30);
        prop_assert!(report.stats.is_balanced());
        prop_assert_eq!(report.stats.requeued, report.stats.injected_crashes);
    }
}

/// Crashes aimed to race the hot-swap machinery: every pickup of the
/// first incarnations crashes (until the budget runs dry) while the
/// driver swaps every 2 batches and half the installs fail. The pinned
/// generation of a requeued sub-batch must survive the requeue — the
/// `OnceLock` pin is on the batch, not the worker.
#[test]
fn crash_storm_racing_swaps_keeps_batches_untorn() {
    let (indices, batches) = fixture(9);
    for workers in [2usize, 4] {
        let plan = ServeFaultPlan::new(0xC4A5)
            .with_worker_crashes(1.0, 8)
            .with_swap_failures(0.5);
        let report = run_chaos_consistency(
            &indices,
            &batches,
            &ChaosHarnessConfig {
                workers,
                swap_every: 2,
                fault_plan: plan,
                ..ChaosHarnessConfig::default()
            },
        );
        assert_eq!(report.stats.injected_crashes, 8, "budget fully spent");
        assert_eq!(report.stats.requeued, 8);
        assert!(report.stats.respawns >= 8);
        assert!(report.swaps >= 1, "swaps proceed through the storm");
        assert_eq!(report.recoveries.len() as u64, report.stats.respawns);
    }
}

/// A pure stall run: supervision must supersede the stalled workers and
/// the stalled workers must still finish (exactly once) the sub-batches
/// they claimed.
#[test]
fn stall_storm_is_superseded_without_double_answers() {
    let (indices, batches) = fixture(5);
    let plan = ServeFaultPlan::new(0x57A1).with_worker_stalls(1.0, Duration::from_millis(25), 4);
    let report = run_chaos_consistency(
        &indices,
        &batches,
        &ChaosHarnessConfig {
            workers: 2,
            swap_every: 0, // no swaps: isolate the stall machinery
            fault_plan: plan,
            ..ChaosHarnessConfig::default()
        },
    );
    assert_eq!(report.stats.injected_stalls, 4, "budget fully spent");
    assert!(report.stats.respawns >= 1, "at least one supersession");
    assert_eq!(report.stats.requeued, 0, "stalls never requeue");
    assert_eq!(report.swaps, 0);
    assert_eq!(report.generations_observed.len(), 1);
}

/// Fault streams are per (seed, shard, incarnation): two runs of the same
/// plan inject the same crash budget spend (the schedule is a function of
/// the seed, not of wall-clock timing) on a single-worker service, where
/// pickup order is deterministic.
#[test]
fn single_worker_fault_schedules_replay_identically() {
    let (indices, batches) = fixture(1);
    let run = || {
        let plan = ServeFaultPlan::new(42)
            .with_worker_crashes(0.2, 4)
            .with_swap_failures(0.4);
        run_chaos_consistency(
            &indices,
            &batches,
            &ChaosHarnessConfig {
                workers: 1,
                submitters: 1,
                swap_every: 4,
                fault_plan: plan,
                ..ChaosHarnessConfig::default()
            },
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.stats.injected_crashes, b.stats.injected_crashes);
    assert_eq!(a.stats.requeued, b.stats.requeued);
    assert_eq!(a.swap_failures, b.swap_failures);
    assert_eq!(a.answers_checked, b.answers_checked);
}

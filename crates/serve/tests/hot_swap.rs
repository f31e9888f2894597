//! The hot-swap contract, pinned differentially: while `swap_index`
//! races against submission, pickup, overload, and shutdown,
//! every batch must be answered **entirely** by the single index
//! generation it pinned — each answer equal to `ReachIndex::query` on
//! that generation — and a swap must never block or drain in-flight
//! work. The sweep covers 3 evolving graph sequences × 2 swap cadences ×
//! 1/2/4/8 workers; targeted tests nail the individual interleavings
//! (pin-at-pickup, swap under overload, swap during shutdown, shrinking
//! swaps).

use std::sync::Arc;

use proptest::prelude::*;
use reach_datasets::{edge_fraction_slices, standard_mixes, workload, QueryMix};
use reach_graph::{DiGraph, VertexId};
use reach_index::ReachIndex;
use reach_serve::testing::{closure_index, run_swap_consistency, SwapHarnessConfig};
use reach_serve::{QueryService, ServeConfig, ServeError};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Three evolving-graph sequences (deterministic edge-insertion
/// schedules): each is a base graph cut into cumulative edge slices over
/// one shared vertex set, so index `i` serves a strictly sparser view of
/// the same world than index `i + 1`.
fn sequences() -> Vec<(&'static str, Vec<DiGraph>)> {
    let bases = [
        (
            "web",
            reach_datasets::generators::hierarchy(48, 150, 0.9, 21),
        ),
        ("social", reach_datasets::social(40, 130, 0.25, 22)),
        ("citation", reach_datasets::citation_dag(44, 140, 23)),
    ];
    bases
        .into_iter()
        .map(|(name, g)| {
            let slices = edge_fraction_slices(&g, 3, 7);
            (name, slices)
        })
        .collect()
}

fn chunked(queries: Vec<(VertexId, VertexId)>, size: usize) -> Vec<Vec<(VertexId, VertexId)>> {
    queries.chunks(size).map(<[_]>::to_vec).collect()
}

/// The acceptance sweep: sequences × cadences × worker counts.
/// Every batch's answers are asserted (inside the harness) against the
/// generation it was pinned to; here we additionally require that swaps
/// really happened and that multiple generations actually answered.
#[test]
fn every_batch_is_answered_by_exactly_one_generation() {
    for (seq_i, (name, graphs)) in sequences().into_iter().enumerate() {
        let indices: Vec<Arc<ReachIndex>> = graphs.iter().map(closure_index).collect();
        let full = graphs.last().unwrap();
        let (_, mix) = standard_mixes()[seq_i % 3];
        for swap_every in [2usize, 8] {
            let mut observed_across_runs = std::collections::BTreeSet::new();
            for workers in WORKERS {
                let batches = chunked(workload(full, mix, 60 * 12, 0x5a + seq_i as u64), 12);
                let report = run_swap_consistency(
                    &indices,
                    &batches,
                    &SwapHarnessConfig {
                        workers,
                        swap_every,
                        submitters: 2,
                    },
                );
                assert_eq!(report.batches, 60, "{name}");
                assert_eq!(report.answers_checked, 60 * 12, "{name}");
                assert!(
                    report.swaps >= 1,
                    "{name}: driver must swap at cadence {swap_every}"
                );
                assert_eq!(report.stats.generation, report.swaps);
                observed_across_runs.extend(report.generations_observed);
            }
            assert!(
                observed_across_runs.len() >= 2,
                "{name} at cadence {swap_every}: swaps never interleaved with serving \
                 (observed {observed_across_runs:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same property on random evolving graphs, random workload
    /// seeds, random cadences and batch sizes.
    #[test]
    fn swap_consistency_on_random_evolving_graphs(
        n in 10usize..40,
        edge_factor in 2usize..5,
        graph_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        swap_every in 1usize..6,
        batch_size in 1usize..24,
    ) {
        let g = if graph_seed.is_multiple_of(2) {
            reach_datasets::generators::hierarchy(n, n * edge_factor, 0.8, graph_seed)
        } else {
            reach_datasets::social(n, n * edge_factor, 0.25, graph_seed)
        };
        let slices = edge_fraction_slices(&g, 4, graph_seed ^ 0x9e37);
        let indices: Vec<Arc<ReachIndex>> = slices.iter().map(closure_index).collect();
        let batches = chunked(workload(&g, QueryMix::Uniform, 240, workload_seed), batch_size);
        for workers in WORKERS {
            let report = run_swap_consistency(
                &indices,
                &batches,
                &SwapHarnessConfig { workers, swap_every, submitters: 2 },
            );
            prop_assert_eq!(report.answers_checked, 240);
        }
    }
}

/// Pin-at-pickup, and no drain: with every worker paused, a swap must
/// return immediately (in-flight/queued batches are NOT drained first),
/// and the queued batch must then be answered by the *new* generation —
/// the freshest index available when compute actually starts.
#[test]
fn queued_batches_pin_the_generation_current_at_pickup() {
    let (_, graphs) = sequences().remove(0);
    let indices: Vec<Arc<ReachIndex>> = graphs.iter().map(closure_index).collect();
    let svc = QueryService::start(Arc::clone(&indices[0]), ServeConfig::with_workers(2));
    svc.pause();
    let batch: Vec<(VertexId, VertexId)> = (0..12).map(|i| (i, (i + 5) % 12)).collect();
    let ticket = svc.submit_batch_async(&batch, None).unwrap();
    // Workers are paused with work queued; if swap drained or blocked,
    // this would deadlock instead of returning.
    assert_eq!(svc.swap_index(Arc::clone(&indices[1])), 1);
    assert_eq!(svc.generation(), 1);
    svc.resume();
    let (answers, generation) = ticket.wait_tagged().unwrap();
    assert_eq!(generation, 1, "queued batch picked up after the swap");
    for (&(s, t), &got) in batch.iter().zip(&answers) {
        assert_eq!(got, indices[1].query(s, t), "answered by the new index");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.generation, 1);
}

/// A swap landing while the service sheds load: the overloaded rejection
/// stays typed, the queued survivor batch is answered consistently by
/// one generation, and the service keeps serving afterwards.
#[test]
fn swap_under_overload_keeps_rejections_typed_and_answers_consistent() {
    let (_, graphs) = sequences().remove(1);
    let indices: Vec<Arc<ReachIndex>> = graphs.iter().map(closure_index).collect();
    let mut cfg = ServeConfig::with_workers(1);
    cfg.queue_capacity = 1;
    let svc = QueryService::start(Arc::clone(&indices[0]), cfg);
    svc.pause();
    let survivor = svc.submit_batch_async(&[(0, 3), (1, 2)], None).unwrap();
    let err = svc.submit_batch_async(&[(2, 3)], None).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { .. }));
    // Swap while saturated — must neither block nor unblock the queue.
    assert_eq!(svc.swap_index(Arc::clone(&indices[2])), 1);
    assert!(matches!(
        svc.submit_batch_async(&[(2, 3)], None).unwrap_err(),
        ServeError::Overloaded { .. }
    ));
    svc.resume();
    let (answers, generation) = survivor.wait_tagged().unwrap();
    // Generation 0 is the start index, the single swap installed slice 2.
    let expect = if generation == 0 {
        &indices[0]
    } else {
        &indices[2]
    };
    assert_eq!(
        answers,
        vec![expect.query(0, 3), expect.query(1, 2)],
        "survivor answered wholly by generation {generation}"
    );
    // Post-overload, post-swap: new batches serve from generation 1.
    let (answers, generation) = svc
        .submit_batch_async(&[(2, 3)], None)
        .unwrap()
        .wait_tagged()
        .unwrap();
    assert_eq!(generation, 1);
    assert_eq!(answers, vec![indices[2].query(2, 3)]);
    let stats = svc.shutdown();
    assert_eq!(stats.rejected_overload, 2);
    assert_eq!(stats.swaps, 1);
}

/// Swaps racing right into shutdown: a swapper thread hammers
/// `swap_index` and then performs the final drop (= shutdown: close,
/// drain, join) itself, while queued batches from a paused service are
/// drained across whatever generation they land on. Every ticket must
/// resolve to its pinned generation's answers; nothing may panic or hang.
#[test]
fn swap_racing_shutdown_drains_consistently() {
    let (_, graphs) = sequences().remove(2);
    let indices: Vec<Arc<ReachIndex>> = graphs.iter().map(closure_index).collect();
    let svc = Arc::new(QueryService::start(
        Arc::clone(&indices[0]),
        ServeConfig::with_workers(2),
    ));
    svc.pause();
    let batches: Vec<Vec<(VertexId, VertexId)>> = (0..8)
        .map(|i| (0..6).map(|j| ((i + j) % 40, (j * 7) % 40)).collect())
        .collect();
    let tickets: Vec<_> = batches
        .iter()
        .map(|b| svc.submit_batch_async(b, None).unwrap())
        .collect();
    let swapper = {
        let svc = Arc::clone(&svc);
        let next = Arc::clone(&indices[1]);
        std::thread::spawn(move || {
            for _ in 0..16 {
                svc.swap_index(Arc::clone(&next));
            }
            // `svc` (possibly the last handle) drops here: shutdown runs
            // on this thread immediately after the swap burst.
        })
    };
    // Dropping the main handle while the swapper still runs: whichever
    // thread drops last performs close-and-join, with pause still set
    // (close overrides pause, so every admitted batch drains).
    drop(svc);
    swapper.join().expect("swapper/shutdown thread panicked");
    for (batch, ticket) in batches.iter().zip(tickets) {
        let (answers, generation) = ticket.wait_tagged().unwrap();
        let expect = if generation == 0 {
            &indices[0]
        } else {
            &indices[1]
        };
        for (&(s, t), &got) in batch.iter().zip(&answers) {
            assert_eq!(
                got,
                expect.query(s, t),
                "drained batch answered by generation {generation}"
            );
        }
    }
}

/// A swap to an index covering *fewer* vertices: batches already admitted
/// with now-out-of-range vertices are failed with the typed
/// `InvalidVertex` at pickup — never a panic, never a torn answer.
#[test]
fn shrinking_swap_rejects_stranded_batches_with_typed_errors() {
    let big = closure_index(&reach_datasets::generators::hierarchy(30, 80, 0.9, 31));
    let small = closure_index(&reach_datasets::generators::hierarchy(10, 25, 0.9, 32));
    let svc = QueryService::start(Arc::clone(&big), ServeConfig::with_workers(2));
    svc.pause();
    let stranded = svc.submit_batch_async(&[(25, 3), (2, 28)], None).unwrap();
    let safe = svc.submit_batch_async(&[(4, 7)], None).unwrap();
    assert_eq!(svc.swap_index(Arc::clone(&small)), 1);
    // New submissions are validated against the new generation up front.
    assert_eq!(
        svc.submit_batch_async(&[(25, 3)], None).unwrap_err(),
        ServeError::InvalidVertex {
            vertex: 25,
            num_vertices: 10
        }
    );
    svc.resume();
    // The stranded batch spans both shards; whichever sub-batch a worker
    // rechecks first reports its own offending vertex (25 or 28) — the
    // batch's first failure is sticky.
    match stranded.wait().unwrap_err() {
        ServeError::InvalidVertex {
            vertex,
            num_vertices: 10,
        } if vertex == 25 || vertex == 28 => {}
        other => panic!("expected a pinned-generation InvalidVertex, got {other:?}"),
    }
    let (answers, generation) = safe.wait_tagged().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(answers, vec![small.query(4, 7)]);
    svc.shutdown();
}

/// Swap bookkeeping: generations are consecutive, `ServeStats` mirrors
/// them, and a torrent of swaps with no traffic is harmless.
#[test]
fn generations_are_consecutive_and_counted() {
    let idx = closure_index(&reach_datasets::generators::hierarchy(12, 30, 0.9, 51));
    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(1));
    assert_eq!(svc.generation(), 0);
    for round in 1..=64u64 {
        assert_eq!(svc.swap_index(Arc::clone(&idx)), round);
    }
    assert_eq!(svc.generation(), 64);
    let (answers, generation) = svc
        .submit_batch_async(&[(0, 5)], None)
        .unwrap()
        .wait_tagged()
        .unwrap();
    assert_eq!(generation, 64);
    assert_eq!(answers, vec![idx.query(0, 5)]);
    let stats = svc.shutdown();
    assert_eq!(stats.swaps, 64);
    assert_eq!(stats.generation, 64);
}

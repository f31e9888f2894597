//! The serving layer's core guarantee, pinned as a property: for every
//! workload mix, the service's answers are bit-identical to direct
//! `ReachIndex::query` calls at 1/2/4/8 worker threads — across random
//! graphs, workload seeds, and batch sizes. A serving layer that changes an answer is a bug, not a
//! trade-off.

use std::sync::Arc;

use proptest::prelude::*;
use reach_datasets::{standard_mixes, workload};
use reach_graph::{DiGraph, VertexId};
use reach_serve::testing::closure_index;
use reach_serve::{QueryService, ServeConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_graph(n: usize, edges: usize, seed: u64) -> DiGraph {
    // Alternate the two cyclic generator families for structural variety.
    if seed.is_multiple_of(2) {
        reach_datasets::generators::hierarchy(n, edges, 0.8, seed)
    } else {
        reach_datasets::social(n, edges, 0.25, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn answers_bit_identical_across_threads_and_mixes(
        n in 8usize..48,
        edge_factor in 1usize..4,
        graph_seed in 0u64..1_000,
        workload_seed in 0u64..1_000,
        batch_size in 1usize..40,
    ) {
        let g = random_graph(n, n * edge_factor, graph_seed);
        let idx = closure_index(&g);
        for (mix_name, mix) in standard_mixes() {
            let queries = workload(&g, mix, 120, workload_seed);
            let expect: Vec<bool> = queries.iter().map(|&(s, t)| idx.query(s, t)).collect();
            for workers in THREAD_COUNTS {
                let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(workers));
                let mut got = Vec::with_capacity(queries.len());
                for chunk in queries.chunks(batch_size) {
                    got.extend(svc.submit_batch(chunk, None).unwrap());
                }
                prop_assert_eq!(
                    &got, &expect,
                    "mix {} at {} workers", mix_name, workers
                );
                let stats = svc.shutdown();
                prop_assert_eq!(stats.queries, queries.len() as u64);
                prop_assert_eq!(stats.rejected_overload, 0);
                prop_assert_eq!(stats.rejected_deadline, 0);
            }
        }
    }
}

/// Cancellation-by-drop: dropping a [`reach_serve::BatchTicket`] without
/// waiting abandons only the *client's view* — the admitted batch still
/// runs to completion, its queries are fully accounted in `ServeStats`,
/// and every worker joins cleanly at shutdown (a worker wedged on a
/// dropped ticket would hang the join; a skipped batch would show up as a
/// query-count shortfall).
#[test]
fn dropped_tickets_still_complete_and_account_their_work() {
    let g = random_graph(32, 96, 2);
    let idx = closure_index(&g);
    let n = g.num_vertices() as VertexId;
    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(4));
    svc.pause();
    let batches: Vec<Vec<(VertexId, VertexId)>> = (0..12u32)
        .map(|i| {
            (0..5)
                .map(|j| ((i * 7 + j) % n, (j * 11 + i) % n))
                .collect()
        })
        .collect();
    let mut kept = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let ticket = svc.submit_batch_async(batch, None).unwrap();
        if i % 3 == 0 {
            kept.push((i, ticket));
        } else {
            drop(ticket); // cancelled from the client side while queued
        }
    }
    svc.resume();
    for (i, ticket) in kept {
        let expect: Vec<bool> = batches[i].iter().map(|&(s, t)| idx.query(s, t)).collect();
        assert_eq!(ticket.wait().unwrap(), expect, "kept ticket {i}");
    }
    let stats = svc.shutdown();
    let total: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(
        stats.queries, total as u64,
        "dropped batches were still computed — nothing leaked, nothing skipped"
    );
    assert_eq!(stats.batches, batches.len() as u64);
    assert_eq!(stats.rejected_overload, 0);
    assert_eq!(stats.rejected_deadline, 0);
}

/// Drops racing live workers (not staged behind a pause): interleaving a
/// drop with the batch's own compute must never wedge the service or
/// disturb sibling batches' answers.
#[test]
fn racing_ticket_drops_never_wedge_the_service() {
    let g = random_graph(24, 72, 3);
    let idx = closure_index(&g);
    let n = g.num_vertices() as VertexId;
    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2));
    let rounds = 50u32;
    for round in 0..rounds {
        let dropped_batch = [(round % n, (round + 1) % n), ((round * 3) % n, round % n)];
        let kept_batch = [
            ((round + 2) % n, (round * 5) % n),
            (round % n, (round * 2) % n),
        ];
        let dropped = svc.submit_batch_async(&dropped_batch, None).unwrap();
        let kept = svc.submit_batch_async(&kept_batch, None).unwrap();
        drop(dropped); // races the workers mid-compute
        let expect: Vec<bool> = kept_batch.iter().map(|&(s, t)| idx.query(s, t)).collect();
        assert_eq!(kept.wait().unwrap(), expect, "round {round}");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.batches, u64::from(rounds) * 2);
    assert_eq!(
        stats.queries,
        u64::from(rounds) * 4,
        "every query of every batch (dropped ones included) was served"
    );
}

/// The same guarantee over the real DRL product: a DRLb-built index on the
/// paper graph served at every thread count answers exactly like the
/// index it serves.
#[test]
fn drlb_index_served_bit_identically() {
    let g = reach_graph::fixtures::paper_graph();
    let ord = reach_graph::OrderAssignment::new(&g, reach_graph::OrderKind::DegreeProduct);
    let (idx, _stats) = reach_drl_dist::drlb::run_configured(
        &g,
        &ord,
        reach_core::BatchParams::default(),
        4,
        reach_vcs::NetworkModel::default(),
        None,
        None,
    )
    .expect("fault-free build");
    let idx = Arc::new(idx);
    let all_pairs: Vec<(VertexId, VertexId)> = g
        .vertices()
        .flat_map(|s| g.vertices().map(move |t| (s, t)))
        .collect();
    let expect: Vec<bool> = all_pairs.iter().map(|&(s, t)| idx.query(s, t)).collect();
    for workers in THREAD_COUNTS {
        let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(workers));
        let got = svc.submit_batch(&all_pairs, None).unwrap();
        assert_eq!(got, expect, "{workers} workers");
        // Ask the same batch again: same answers.
        let again = svc.submit_batch(&all_pairs, None).unwrap();
        assert_eq!(again, expect, "{workers} workers, repeated");
        svc.shutdown();
    }
}

//! The serving stack over encoded index sources: a service started from
//! a [`CompressedIndex`] or [`MmapIndex`] must be answer-identical to
//! one started from the uncompressed [`ReachIndex`] — across batches,
//! generations, and hot swaps between backing kinds.
//!
//! This is the integration seam the codec differential harness
//! (`crates/index/tests/codec_differential.rs`) does not cover: epoch
//! pinning, routing a batch over the workers, and the witness path
//! through `source_tagged` — one serving path whatever the backing and
//! whichever constructor or swap installed it.

use std::sync::Arc;

use reach_datasets::{edge_fraction_slices, negative_mix, standard_mixes, workload};
use reach_graph::VertexId;
use reach_index::{BloomConfig, CodecId, CompressedIndex, IndexSource, MmapIndex, ReachIndex};
use reach_serve::testing::closure_index;
use reach_serve::{QueryService, ServeConfig};

fn temp_ridx(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "reach-source-serve-{}-{tag}.ridx",
        std::process::id()
    ))
}

fn test_graph() -> reach_graph::DiGraph {
    reach_datasets::citation_dag(120, 420, 77)
}

/// Every backing kind serves the same answers through the full batch
/// machinery, for every workload mix.
#[test]
fn service_answers_are_identical_across_source_kinds() {
    let g = test_graph();
    let idx = closure_index(&g);
    let path = temp_ridx("kinds");
    reach_index::save_index_v2(
        &idx,
        &path,
        CodecId::DeltaVarint,
        Some(BloomConfig::default()),
    )
    .unwrap();

    let sources: Vec<(&str, Arc<dyn IndexSource>)> = vec![
        (
            "compressed",
            Arc::new(CompressedIndex::build(
                &idx,
                CodecId::DeltaVarint,
                Some(BloomConfig::default()),
            )),
        ),
        ("mmap", Arc::new(MmapIndex::open(&path).unwrap())),
    ];

    let mut mixes = standard_mixes();
    mixes.push(negative_mix());
    let baseline = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(4));
    for (name, source) in &sources {
        let svc = QueryService::start_with_source(Arc::clone(source), ServeConfig::with_workers(4));
        for (mix_name, mix) in &mixes {
            let queries = workload(&g, *mix, 400, 0xcafe);
            for chunk in queries.chunks(64) {
                let want = baseline.submit_batch(chunk, None).unwrap();
                let got = svc.submit_batch(chunk, None).unwrap();
                assert_eq!(got, want, "{name}/{mix_name}");
            }
        }
        svc.shutdown();
    }
    baseline.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Hot swaps across backing kinds: ram → compressed → mmap → ram. Each
/// swap bumps the generation, in-flight batches stay consistent, and
/// answers always match the logical index installed at submission time.
#[test]
fn swapping_between_ram_and_encoded_sources_preserves_answers() {
    let g = test_graph();
    let idx = closure_index(&g);
    let path = temp_ridx("swap");
    reach_index::save_index_v2(&idx, &path, CodecId::DeltaVarint, None).unwrap();

    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2));
    let queries = workload(&g, standard_mixes()[0].1, 300, 3);
    let want: Vec<bool> = queries.iter().map(|&(s, t)| idx.query(s, t)).collect();

    let gen0 = svc.generation();
    let compressed: Arc<dyn IndexSource> = Arc::new(CompressedIndex::build(
        &idx,
        CodecId::DeltaVarint,
        Some(BloomConfig::default()),
    ));
    let gen1 = svc.swap_source(Arc::clone(&compressed));
    assert!(gen1 > gen0);
    assert_eq!(svc.submit_batch(&queries, None).unwrap(), want);

    let mmapped: Arc<dyn IndexSource> = Arc::new(MmapIndex::open(&path).unwrap());
    let gen2 = svc.try_swap_source(mmapped).unwrap();
    assert!(gen2 > gen1);
    assert_eq!(svc.submit_batch(&queries, None).unwrap(), want);

    // And back to a plain in-memory index: the ram path still works
    // after the service has served encoded epochs.
    let gen3 = svc.swap_index(Arc::clone(&idx));
    assert!(gen3 > gen2);
    assert_eq!(svc.submit_batch(&queries, None).unwrap(), want);

    let stats = svc.shutdown();
    assert_eq!(stats.swaps, 3);
    std::fs::remove_file(&path).ok();
}

/// Concurrent submitters race a stream of source swaps; every batch must
/// come back internally consistent (all answers from one generation —
/// and since every generation serves the same logical index, equal to
/// the truth).
#[test]
fn swaps_under_concurrent_load_never_tear_a_batch() {
    let g = test_graph();
    let idx = closure_index(&g);
    let svc = Arc::new(QueryService::start(
        Arc::clone(&idx),
        ServeConfig::with_workers(4),
    ));
    let queries = Arc::new(workload(&g, negative_mix().1, 240, 9));
    let want: Arc<Vec<bool>> = Arc::new(queries.iter().map(|&(s, t)| idx.query(s, t)).collect());

    let mut handles = Vec::new();
    for worker in 0..4 {
        let (svc, queries, want) = (Arc::clone(&svc), Arc::clone(&queries), Arc::clone(&want));
        handles.push(std::thread::spawn(move || {
            for round in 0..20 {
                let got = svc.submit_batch(&queries, None).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "worker {worker} round {round}"
                );
            }
        }));
    }
    let swapper = {
        let (svc, idx) = (Arc::clone(&svc), Arc::clone(&idx));
        std::thread::spawn(move || {
            for i in 0..12 {
                if i % 2 == 0 {
                    let src: Arc<dyn IndexSource> = Arc::new(CompressedIndex::build(
                        &idx,
                        CodecId::DeltaVarint,
                        Some(BloomConfig::default()),
                    ));
                    svc.swap_source(src);
                } else {
                    svc.swap_index(Arc::clone(&idx));
                }
                std::thread::yield_now();
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    swapper.join().unwrap();
}

/// The witness path: `source_tagged` hands out the answering epoch's
/// source, and its witnesses agree with the uncompressed index on both
/// ram and encoded epochs.
#[test]
fn source_tagged_serves_witnesses_on_every_backing() {
    let g = test_graph();
    let idx = closure_index(&g);
    let svc = QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2));

    let check = |svc: &QueryService, expect_gen: u64| {
        let (src, generation) = svc.source_tagged();
        assert_eq!(generation, expect_gen);
        for s in (0..g.num_vertices() as u32).step_by(11) {
            for t in (0..g.num_vertices() as u32).step_by(13) {
                assert_eq!(src.query_witness(s, t), idx.query_witness(s, t));
                assert_eq!(src.query(s, t), idx.query(s, t));
            }
        }
    };
    check(&svc, svc.generation());

    let src: Arc<dyn IndexSource> = Arc::new(CompressedIndex::build(
        &idx,
        CodecId::DeltaVarint,
        Some(BloomConfig::default()),
    ));
    let generation = svc.swap_source(src);
    check(&svc, generation);
    svc.shutdown();
}

/// Starting from a source validates config exactly like the ram path:
/// vertex ids outside the source's range are rejected at submission.
#[test]
fn source_backed_service_validates_vertex_range() {
    let g = test_graph();
    let idx = closure_index(&g);
    let n = idx.num_vertices() as u32;
    let src: Arc<dyn IndexSource> =
        Arc::new(CompressedIndex::build(&idx, CodecId::DeltaVarint, None));
    let svc = QueryService::start_with_source(src, ServeConfig::with_workers(2));
    assert!(matches!(
        svc.submit_batch(&[(0, n)], None),
        Err(reach_serve::ServeError::InvalidVertex { .. })
    ));
    assert_eq!(svc.submit_batch(&[(0, 0)], None).unwrap(), vec![true]);
    svc.shutdown();
}

/// Checks one served epoch against the index it should be serving:
/// `source_tagged` reports `generation` and answers and witnesses like
/// `expect`, and a batch submitted now is answered by that generation
/// with `expect`'s answers.
fn assert_serves(
    svc: &QueryService,
    expect: &ReachIndex,
    generation: u64,
    queries: &[(VertexId, VertexId)],
) {
    let (src, tagged) = svc.source_tagged();
    assert_eq!(tagged, generation);
    assert_eq!(src.num_vertices(), expect.num_vertices());
    for &(s, t) in queries {
        assert_eq!(src.query(s, t), expect.query(s, t), "q({s},{t})");
        assert_eq!(
            src.query_witness(s, t),
            expect.query_witness(s, t),
            "witness({s},{t}) at generation {generation}"
        );
    }
    let (answers, answered_by) = svc
        .submit_batch_async(queries, None)
        .unwrap()
        .wait_tagged()
        .unwrap();
    assert_eq!(answered_by, generation);
    let want: Vec<bool> = queries.iter().map(|&(s, t)| expect.query(s, t)).collect();
    assert_eq!(answers, want, "batch at generation {generation}");
}

/// Every constructor serves through the one source path: a service
/// started from a decoded `ReachIndex` answers `source_tagged()` like one
/// started from an encoded source, and no accessor panics on any backing.
#[test]
fn every_constructor_serves_through_source_tagged() {
    let g = test_graph();
    let idx = closure_index(&g);
    let path = temp_ridx("ctor");
    reach_index::save_index_v2(
        &idx,
        &path,
        CodecId::DeltaVarint,
        Some(BloomConfig::default()),
    )
    .unwrap();
    let queries = workload(&g, standard_mixes()[1].1, 200, 5);

    let services = [
        (
            "ram",
            QueryService::start(Arc::clone(&idx), ServeConfig::with_workers(2)),
        ),
        (
            "ram source",
            QueryService::start_with_source(
                Arc::clone(&idx) as Arc<dyn IndexSource>,
                ServeConfig::with_workers(2),
            ),
        ),
        (
            "compressed",
            QueryService::start_with_source(
                Arc::new(CompressedIndex::build(&idx, CodecId::DeltaVarint, None)),
                ServeConfig::with_workers(2),
            ),
        ),
        (
            "mmap",
            QueryService::start_with_source(
                Arc::new(MmapIndex::open(&path).unwrap()),
                ServeConfig::with_workers(2),
            ),
        ),
    ];
    for (name, svc) in services {
        assert_serves(&svc, &idx, 0, &queries);
        // Every accessor, on every backing.
        assert_eq!(svc.generation(), 0, "{name}");
        assert_eq!(svc.num_workers(), 2, "{name}");
        assert!(svc.recovery_log().is_empty(), "{name}");
        assert_eq!(svc.stats().cache_hit_rate(), 0.0, "{name}");
        assert!(!svc.source_tagged().0.describe().is_empty(), "{name}");
        let stats = svc.shutdown();
        assert_eq!(stats.queries, queries.len() as u64, "{name}");
    }
    std::fs::remove_file(&path).ok();
}

/// A ReachIndex → mmap → ReachIndex swap chain over three different
/// indices (cumulative edge slices of one graph): at each generation the
/// answers and witnesses equal `ReachIndex::query` on the index that
/// generation installed.
#[test]
fn ram_mmap_ram_swap_chain_serves_each_generation_exactly() {
    let base = test_graph();
    let slices = edge_fraction_slices(&base, 3, 11);
    let indices: Vec<Arc<ReachIndex>> = slices.iter().map(closure_index).collect();
    assert!(
        indices.windows(2).any(|w| w[0] != w[1]),
        "the slices must differ, or the chain proves nothing"
    );
    let path = temp_ridx("chain");
    reach_index::save_index_v2(
        &indices[1],
        &path,
        CodecId::DeltaVarint,
        Some(BloomConfig::default()),
    )
    .unwrap();
    let queries = workload(&base, standard_mixes()[0].1, 300, 17);

    let svc = QueryService::start(Arc::clone(&indices[0]), ServeConfig::with_workers(2));
    assert_serves(&svc, &indices[0], 0, &queries);
    let generation = svc.swap_source(Arc::new(MmapIndex::open(&path).unwrap()));
    assert_serves(&svc, &indices[1], generation, &queries);
    let generation = svc.swap_index(Arc::clone(&indices[2]));
    assert_serves(&svc, &indices[2], generation, &queries);
    let stats = svc.shutdown();
    assert_eq!(stats.swaps, 2);
    std::fs::remove_file(&path).ok();
}

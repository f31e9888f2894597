//! Serve-side invariants under an ingest-fed swap storm: the
//! `submitted == answered + rejected + shed` ledger holds, and no answer
//! leaks across generations.
//!
//! The staleness probe is a graph whose reachability *toggles* every
//! event: a bridge edge is inserted and removed in alternation, and the
//! pipeline publishes after every single event. The same query is
//! submitted over and over — if any answer came from another generation
//! than the one its batch pinned, it would disagree with that
//! generation's snapshot.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use reach_core::dynamic::DynamicIndex;
use reach_graph::{EdgeEvent, OrderAssignment, OrderKind};
use reach_index::ReachIndex;
use reach_ingest::{IndexSink, Ingest, IngestConfig, RepairMode};
use reach_serve::{QueryService, ServeConfig};

struct RecordingSink {
    service: Arc<QueryService>,
    by_generation: Mutex<HashMap<u64, Arc<ReachIndex>>>,
}

impl IndexSink for RecordingSink {
    fn install(&self, index: Arc<ReachIndex>) -> u64 {
        let generation = self.service.swap_index(Arc::clone(&index));
        self.by_generation.lock().unwrap().insert(generation, index);
        generation
    }
}

#[test]
fn swap_storm_keeps_the_ledger_and_never_serves_stale_answers() {
    // Two chains bridged by a toggling edge: 0->1->2 -(toggle)-> 3->4->5.
    let g = reach_graph::fixtures::two_components();
    let ord = OrderAssignment::new(&g, OrderKind::DegreeProduct);
    let initial = Arc::new(reach_core::improved::drl(&g, &ord));

    let mut config = ServeConfig::with_workers(2);
    config.queue_capacity = 64;
    let service = Arc::new(QueryService::start(Arc::clone(&initial), config));
    let sink = Arc::new(RecordingSink {
        service: Arc::clone(&service),
        by_generation: Mutex::new(HashMap::from([(service.generation(), initial)])),
    });

    // Publish after every event: every toggle is its own generation.
    let ingest = Arc::new(Ingest::start(
        DynamicIndex::new(reach_graph::DynamicGraph::from_digraph(&g), ord),
        Arc::clone(&sink) as Arc<dyn IndexSink>,
        IngestConfig {
            flush_events: 1,
            flush_age: Duration::from_millis(1),
            publish_every_batches: 1,
            mode: RepairMode::Incremental,
            verify_publishes: true,
            ..IngestConfig::default()
        },
    ));

    const TOGGLES: usize = 60;
    let feeder = {
        let ingest = Arc::clone(&ingest);
        std::thread::spawn(move || {
            for i in 0..TOGGLES {
                let ev = if i % 2 == 0 {
                    EdgeEvent::insert(2, 3)
                } else {
                    EdgeEvent::remove(2, 3)
                };
                ingest.submit(ev).unwrap();
                std::thread::sleep(Duration::from_micros(400));
            }
        })
    };

    // Hammer the exact pair whose answer toggles, plus stable probes.
    let queries = [(0u32, 5u32), (0, 2), (3, 5), (5, 0)];
    let hammer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut toggled = [false, false];
            for _ in 0..400 {
                let ticket = match service.submit_batch_async(&queries, None) {
                    Ok(t) => t,
                    Err(_) => continue,
                };
                let (answers, generation) = ticket.wait_tagged().unwrap();
                toggled[answers[0] as usize] = true;
                seen.push((answers, generation));
            }
            (seen, toggled)
        })
    };

    feeder.join().unwrap();
    let (seen, toggled) = hammer.join().unwrap();
    let ingest = Arc::into_inner(ingest).expect("feeder joined");
    let stats = ingest.shutdown();

    // The pipeline really stormed: one publish per toggle (plus the
    // shutdown drain's), every one verified against a rebuild.
    assert_eq!(stats.events_ingested, TOGGLES);
    assert_eq!(stats.publishes, stats.batches);
    assert!(stats.publishes >= TOGGLES);
    assert_eq!(stats.verify_failures, 0);

    // No stale answers: each observation matches the snapshot of the
    // generation it was pinned to. The stable probes also pin the
    // constant expectations ((0,2) and (3,5) true, (5,0) false) so a
    // wholly-wrong snapshot cannot hide a generation leak.
    let sink = Arc::into_inner(sink).expect("ingest worker exited");
    drop(sink.service);
    let by_generation = sink.by_generation.into_inner().unwrap();
    assert!(!seen.is_empty());
    for (answers, generation) in &seen {
        let idx = by_generation.get(generation).unwrap();
        for ((s, t), &got) in queries.iter().zip(answers) {
            assert_eq!(
                got,
                idx.query(*s, *t),
                "q({s},{t}) stale at gen {generation}"
            );
        }
        assert!(answers[1] && answers[2] && !answers[3]);
    }
    // The hammer raced enough generations to observe both phases of the
    // toggle — otherwise the staleness probe proved nothing.
    assert!(
        toggled[0] && toggled[1],
        "hammer never saw both toggle phases: {toggled:?}"
    );

    let service = Arc::into_inner(service).expect("sole owner");
    let serve_stats = service.shutdown();
    assert!(serve_stats.is_balanced(), "{serve_stats:?}");
    assert!(serve_stats.swaps as usize == stats.publishes);
}

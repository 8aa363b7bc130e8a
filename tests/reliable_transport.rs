//! Acceptance tests for the reliable-link (ARQ) layer: lossy links
//! become invisible to the DiMa protocols — the inner run is
//! bit-identical to a fault-free bare run, with retransmission cost
//! reported separately — and crash-stopped peers degrade gracefully
//! into verified residual outputs instead of hangs or garbage.

use dima::core::verify::{
    verify_edge_coloring, verify_residual_edge_coloring, verify_residual_matching,
    verify_residual_strong_coloring,
};
use dima::core::{
    color_edges, maximal_matching, strong_color_digraph, ColoringConfig, CoreError, Transport,
};
use dima::graph::gen::structured;
use dima::graph::Digraph;
use dima::sim::fault::FaultPlan;

const LOSS: f64 = 0.2;

fn lossy(seed: u64, transport: Transport) -> ColoringConfig {
    ColoringConfig { faults: FaultPlan::uniform(LOSS), transport, ..ColoringConfig::seeded(seed) }
}

#[test]
fn fifty_of_fifty_lossy_runs_are_clean_under_arq() {
    // The ISSUE acceptance bar: 20% uniform loss on K12, 50 seeded
    // runs, every single one must agree endpoint-to-endpoint and
    // verify — and must equal the fault-free bare run bit for bit
    // (the ARQ wrapper draws nothing from the node RNG streams).
    let g = structured::complete(12);
    let (mut dropped, mut overhead) = (0u64, 0u64);
    for seed in 0..50 {
        let r = color_edges(&g, &lossy(seed, Transport::reliable())).unwrap();
        assert!(r.endpoint_agreement, "seed {seed}");
        verify_edge_coloring(&g, &r.colors).unwrap_or_else(|v| panic!("seed {seed}: {v}"));

        let clean = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        assert_eq!(r.colors, clean.colors, "seed {seed}: inner run perturbed by loss");
        assert_eq!(r.comm_rounds, clean.comm_rounds, "seed {seed}");
        assert_eq!(
            r.comm_rounds + r.transport_overhead_rounds,
            r.stats.rounds,
            "seed {seed}: overhead accounting"
        );
        dropped += r.stats.dropped;
        overhead += r.transport_overhead_rounds;
    }
    assert!(dropped > 0, "20% loss must actually drop deliveries");
    assert!(overhead > 0, "recovering from loss must cost engine rounds");
}

#[test]
fn bare_transport_at_the_same_loss_rate_is_corrupted() {
    // Counterpoint to the test above: without the ARQ layer the same
    // loss rate must visibly corrupt at least one of the 50 runs
    // (desynchronised endpoints or a round-budget abort).
    let g = structured::complete(12);
    let mut corrupted = 0;
    for seed in 0..50 {
        let cfg = ColoringConfig { max_compute_rounds: Some(300), ..lossy(seed, Transport::Bare) };
        match color_edges(&g, &cfg) {
            Ok(r) => {
                if !r.endpoint_agreement || verify_edge_coloring(&g, &r.colors).is_err() {
                    corrupted += 1;
                }
            }
            Err(CoreError::Sim(_)) => corrupted += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(corrupted >= 1, "bare links at 20% loss never corrupted any of 50 runs");
}

#[test]
fn lossy_matching_and_strong_coloring_are_clean_under_arq() {
    let g = structured::complete(12);
    let d = Digraph::symmetric_closure(&g);
    for seed in 0..10 {
        let m = maximal_matching(&g, &lossy(seed, Transport::reliable())).unwrap();
        assert!(m.agreement, "matching seed {seed}");
        assert_eq!(m.pairs, maximal_matching(&g, &ColoringConfig::seeded(seed)).unwrap().pairs);

        let s = strong_color_digraph(&d, &lossy(seed, Transport::reliable())).unwrap();
        assert!(s.endpoint_agreement, "strong seed {seed}");
        let clean = strong_color_digraph(&d, &ColoringConfig::seeded(seed)).unwrap();
        assert_eq!(s.colors, clean.colors, "strong seed {seed}");
    }
}

#[test]
fn crash_stop_runs_terminate_with_proper_residual_outputs() {
    // 10% crash fraction arming mid-run (computation rounds 2..4-ish):
    // every protocol must still terminate, and the survivors' outputs
    // must pass the residual verifiers — proper where both endpoints
    // live, maximal/complete on the residual graph.
    let g = structured::complete(12);
    let d = Digraph::symmetric_closure(&g);
    let mut crashes = 0usize;
    for seed in 0..8 {
        let cfg = ColoringConfig {
            faults: FaultPlan::crashing(0.1, 4),
            transport: Transport::reliable(),
            ..ColoringConfig::seeded(seed)
        };

        let m = maximal_matching(&g, &cfg).unwrap();
        assert!(m.agreement, "matching seed {seed}");
        verify_residual_matching(&g, &m.pairs, &m.alive)
            .unwrap_or_else(|v| panic!("matching seed {seed}: {v}"));

        let r = color_edges(&g, &cfg).unwrap();
        assert!(r.endpoint_agreement, "edge seed {seed}");
        verify_residual_edge_coloring(&g, &r.colors, &r.alive)
            .unwrap_or_else(|v| panic!("edge seed {seed}: {v}"));

        let s = strong_color_digraph(&d, &cfg).unwrap();
        assert!(s.endpoint_agreement, "strong seed {seed}");
        verify_residual_strong_coloring(&d, &s.colors, &s.alive)
            .unwrap_or_else(|v| panic!("strong seed {seed}: {v}"));

        crashes += r.stats.crashed + m.stats.crashed + s.stats.crashed;
    }
    assert!(crashes > 0, "a 10% crash fraction must fell somebody across 8 seeds");
}

#[test]
fn arq_is_transparent_on_reliable_links() {
    // No faults: wrapping costs a few synchronisation rounds but must
    // not change a single output bit.
    let g = structured::grid(5, 5);
    for seed in [7, 19] {
        let bare = color_edges(&g, &ColoringConfig::seeded(seed)).unwrap();
        let arq = color_edges(
            &g,
            &ColoringConfig { transport: Transport::reliable(), ..ColoringConfig::seeded(seed) },
        )
        .unwrap();
        assert_eq!(bare.colors, arq.colors, "seed {seed}");
        assert_eq!(bare.comm_rounds, arq.comm_rounds, "seed {seed}");
        assert!(
            arq.transport_overhead_rounds <= 3,
            "seed {seed}: fault-free overhead should be a handful of rounds, got {}",
            arq.transport_overhead_rounds
        );
    }
}

#[test]
fn loss_alone_never_kills_a_link() {
    // Loss-only plans crash nobody, so every link death the ARQ layer
    // reports here would be false. Fifty seeds per loss rate up to 20%,
    // for both DiMaEC and DiMa2ED.
    let g = structured::complete(12);
    let d = Digraph::symmetric_closure(&g);
    let deaths = |stats: &dima::sim::RunStats| {
        let reg = stats.metrics.as_ref().expect("metrics were on");
        reg.counter("arq/link_down_exhausted") + reg.counter("arq/link_down_silent")
    };
    let mut retransmits = 0;
    for loss in [0.02, 0.1, 0.2] {
        for seed in 0..50 {
            let cfg = ColoringConfig {
                faults: FaultPlan::uniform(loss),
                transport: Transport::reliable(),
                collect_metrics: true,
                ..ColoringConfig::seeded(seed)
            };
            let r = color_edges(&g, &cfg).unwrap();
            assert_eq!(deaths(&r.stats), 0, "DiMaEC loss {loss} seed {seed}");
            let s = strong_color_digraph(&d, &cfg).unwrap();
            assert_eq!(deaths(&s.stats), 0, "DiMa2ED loss {loss} seed {seed}");
            retransmits += r.stats.metrics.unwrap().counter("arq/retransmits");
        }
    }
    assert!(retransmits > 0, "the plans must actually lose bundles");
}

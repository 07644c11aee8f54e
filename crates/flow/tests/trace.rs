//! Span-tree shape of a traced flow run: stage spans are exactly the
//! report's stages, nesting is well-formed, child time never exceeds
//! its parent, and the timed re-grade names its worker count.

use occ_atpg::AtpgOptions;
use occ_core::ClockingMode;
use occ_flow::{EngineChoice, FaultKind, SpanNode, TestFlow};
use occ_obs::AttrValue;
use occ_sim::DelayModel;
use occ_soc::{generate, SocConfig};

fn quick_atpg() -> AtpgOptions {
    AtpgOptions {
        random_patterns: 32,
        backtrack_limit: 12,
        ..AtpgOptions::default()
    }
}

#[test]
fn traced_flow_span_tree_has_one_span_per_stage() {
    let soc = generate(&SocConfig::tiny(3));
    let report = TestFlow::new(&soc)
        .clocking(ClockingMode::SimpleCpf)
        .fault_model(FaultKind::Transition)
        .mask_bidi(true)
        .trace(true)
        .atpg(quick_atpg())
        .run()
        .unwrap();

    let trace = report.trace.as_ref().expect("traced run carries a tree");
    let flow = trace.tree.find("flow").expect("one flow root span");

    // Every reported stage has exactly one direct child span of the
    // flow root carrying its label, with the identical duration the
    // stages block reports.
    for st in &report.stages {
        let matching: Vec<&SpanNode> = flow
            .children
            .iter()
            .filter(|c| c.record.name == st.stage.label())
            .collect();
        assert_eq!(
            matching.len(),
            1,
            "stage '{}' must map to exactly one span",
            st.stage.label()
        );
        let span_secs = matching[0].record.seconds();
        assert!(
            (span_secs - st.seconds).abs() < 1e-12,
            "stage '{}': span {span_secs}s vs report {}s",
            st.stage.label(),
            st.seconds
        );
    }
    // And no stage-labelled span exists that the report missed.
    let stage_children = flow
        .children
        .iter()
        .filter(|c| occ_flow::Stage::from_label(c.record.name).is_some())
        .count();
    assert_eq!(stage_children, report.stages.len());

    // Children are contained in their parent and sum to no more than
    // it, recursively: wall time only nests, it never multiplies.
    fn check(node: &SpanNode) {
        let child_sum: u64 = node.children.iter().map(|c| c.record.dur_ns).sum();
        assert!(
            child_sum <= node.record.dur_ns,
            "'{}': children sum {}ns > parent {}ns",
            node.record.name,
            child_sum,
            node.record.dur_ns
        );
        for c in &node.children {
            assert!(c.record.start_ns >= node.record.start_ns);
            check(c);
        }
    }
    check(flow);

    // An untraced run of the same flow records nothing.
    let untraced = TestFlow::new(&soc)
        .clocking(ClockingMode::SimpleCpf)
        .fault_model(FaultKind::Transition)
        .mask_bidi(true)
        .atpg(quick_atpg())
        .run()
        .unwrap();
    assert!(untraced.trace.is_none());
}

#[test]
fn timed_regrade_span_carries_its_thread_count() {
    let soc = generate(&SocConfig::tiny(3));
    for (engine, threads) in [
        (EngineChoice::Serial, 1),
        (EngineChoice::Sharded { threads: 2 }, 2),
    ] {
        let report = TestFlow::new(&soc)
            .clocking(ClockingMode::SimpleCpf)
            .fault_model(FaultKind::Transition)
            .mask_bidi(true)
            .engine(engine)
            .timing(DelayModel::default())
            .trace(true)
            .atpg(quick_atpg())
            .run()
            .unwrap();
        let tree = &report.trace.as_ref().expect("traced run").tree;
        let regrade = tree.find("timing.regrade").expect("regrade span");
        let attr = regrade.record.attrs().iter().find(|(k, _)| *k == "threads");
        assert!(
            matches!(attr, Some((_, AttrValue::U64(n))) if *n == threads),
            "{engine}: timing.regrade threads attribute {attr:?}"
        );
        // One span for the whole re-grade: no per-chunk children.
        assert!(
            regrade.children.is_empty(),
            "{engine}: {:?}",
            regrade.children
        );
    }
}

//! The pluggable-policy layer's acceptance gates.
//!
//! * The default ladder backend reproduces a committed golden render —
//!   for a clean uniform fleet and for a faulted proportional one.
//! * Only non-default backends announce their plans as `policy_plan`
//!   events; the ladder's event stream carries none.
//! * Every backend — ladder, governor, tabular-RL — survives the scripted
//!   chaos scenario with all invariants green (the fault plans double as
//!   an adversarial policy eval).
//! * Offline RL training is replayable: same seed, same Q-table, same
//!   frozen-policy fleet, byte for byte.

use capsim::chaos::{check, ChaosScenario};
use capsim::prelude::*;

fn ladder_fleet(group: AllocationPolicy, faulty: bool) -> FleetBuilder {
    let mut b = FleetBuilder::new()
        .nodes(4)
        .epochs(3)
        .budget_w(512.0)
        .seed(42)
        .cap_policy(Box::new(LadderCapPolicy::with_group(group)));
    if faulty {
        b = b.faults(FaultSpec::lossy(0.08)).dead_node(2);
    }
    b
}

fn render_of(b: FleetBuilder) -> String {
    b.build().run().render()
}

#[test]
fn ladder_fleets_match_the_committed_golden_file() {
    let actual = render_of(ladder_fleet(AllocationPolicy::Uniform, false))
        + &render_of(ladder_fleet(AllocationPolicy::ProportionalToDemand, true));
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/ladder_policy_render.txt");
    if std::env::var("CAPSIM_BLESS").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("committed golden");
    assert_eq!(expected, actual, "ladder fleets diverged; re-bless with CAPSIM_BLESS=1");
}

#[test]
fn only_non_default_backends_announce_their_plans() {
    let plans = |b: FleetBuilder| {
        let report = b.observe(true).build().run();
        let obs = report.obs.expect("observed");
        let barriers = obs.metrics.counter("fleet.barriers");
        let plans = obs.events.iter().filter(|e| matches!(e.kind, EventKind::PolicyPlan { .. }));
        (plans.count() as u64, barriers)
    };
    for (group, faulty) in
        [(AllocationPolicy::Uniform, false), (AllocationPolicy::ProportionalToDemand, true)]
    {
        let (n, barriers) = plans(ladder_fleet(group.clone(), faulty));
        assert_eq!(n, 0, "the ladder backend announced {n} plans for {group:?}");
        assert_eq!(barriers, 3);
    }
    let governor = ladder_fleet(AllocationPolicy::Uniform, true)
        .cap_policy(Box::new(GovernorCapPolicy::new()));
    assert_eq!(plans(governor), (3, 3), "the governor announces one plan per barrier");
}

#[test]
fn every_backend_survives_scripted_chaos_with_invariants_green() {
    let trained = capsim::dcm::train_rl(&RlTrainConfig::quick(42));
    let specs = [
        CapPolicySpec::Ladder(AllocationPolicy::Uniform),
        CapPolicySpec::Governor(GovernorConfig::default()),
        CapPolicySpec::Rl(trained.q),
    ];
    for spec in specs {
        let name = spec.name();
        let report = check(&ChaosScenario::scripted().with_policy(spec));
        assert!(report.ok(), "{name}: violations: {:?}", report.violations);
    }
}

#[test]
fn rl_training_and_deployment_replay_byte_identically() {
    let a = capsim::dcm::train_rl(&RlTrainConfig::quick(9));
    let b = capsim::dcm::train_rl(&RlTrainConfig::quick(9));
    assert_eq!(a.q_digest, b.q_digest, "same seed, same table");
    assert_eq!(a.q, b.q);

    // Deploy each frozen table into identical fleets: same bytes out.
    let run = |q: QTable| {
        FleetBuilder::new()
            .nodes(3)
            .epochs(4)
            .budget_w(300.0)
            .seed(5)
            .cap_policy(Box::new(RlCapPolicy::frozen(q)))
            .build()
            .run()
            .render()
    };
    assert_eq!(run(a.q), run(b.q), "same table, same fleet bytes");
}

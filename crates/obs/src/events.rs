//! Simulated-time structured event log: a bounded ring of typed events with
//! deterministic JSONL and CSV exporters.
//!
//! Events carry *simulated* seconds, never wall-clock, so an export is a
//! pure function of (seed, workload) — the fleet determinism tests assert
//! byte-identical JSONL across serial and parallel runs.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Why the BMC moved between throttle rungs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RungCause {
    /// Window average exceeded the cap: escalate.
    OverCap,
    /// Window average fell under cap minus hysteresis: relax.
    UnderCap,
    /// The cap was deactivated; the ladder resets to rung 0.
    CapCleared,
    /// Guardrail failsafe pinned the rung at its floor.
    Failsafe,
    /// BMC firmware rebooted; volatile control state (the rung) reset.
    Reboot,
    /// A non-default capping policy jumped straight to a rung (multi-rung
    /// governor/RL moves; the ladder walk never emits this).
    Policy,
}

impl RungCause {
    fn as_str(self) -> &'static str {
        match self {
            RungCause::OverCap => "over_cap",
            RungCause::UnderCap => "under_cap",
            RungCause::CapCleared => "cap_cleared",
            RungCause::Failsafe => "failsafe",
            RungCause::Reboot => "reboot",
            RungCause::Policy => "policy",
        }
    }
}

/// One typed occurrence inside the simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// BMC moved between throttle rungs.
    RungChange { from: u32, to: u32, cause: RungCause, window_w: f64 },
    /// BMC ran out of rungs while still over cap (logged once per episode).
    ThrottleFloor { window_w: f64 },
    /// A SEL entry was appended on the node.
    SelAppend { event: &'static str, datum: u16 },
    /// DCMI Set Power Limit accepted.
    DcmiSetLimit { limit_w: u16, correction_ms: u32 },
    /// DCMI Get Power Limit served.
    DcmiGetLimit,
    /// DCMI Activate/Deactivate Power Limit.
    DcmiActivate { on: bool },
    /// A transaction needed more than one attempt and then succeeded.
    Retry { attempts: u32 },
    /// A transaction exhausted its retry budget.
    Timeout { attempts: u32 },
    /// A managed node changed health state.
    HealthChange { from: &'static str, to: &'static str },
    /// DCM re-planned the group budget across answering nodes.
    BudgetRealloc { epoch: u32, budget_w: f64, answered: u32, caps_pushed: u32 },
    /// End-of-epoch fleet barrier summary.
    Barrier { epoch: u32, answered: u32, unresponsive: u32, fleet_w: f64 },
    /// A typed in-node fault was injected (chaos harness).
    FaultInjected { fault: &'static str },
    /// A previously injected fault was cleared.
    FaultCleared { fault: &'static str },
    /// BMC firmware crashed; it stays dead for `dead_ms`.
    BmcCrash { dead_ms: f64 },
    /// The watchdog restarted crashed BMC firmware after `down_ms` dead.
    WatchdogReboot { down_ms: f64 },
    /// Guardrail failsafe engaged: untrusted telemetry pinned the rung floor.
    FailsafeEngaged { reason: &'static str, window_w: f64 },
    /// Guardrail failsafe released after sustained plausible telemetry.
    FailsafeReleased,
    /// Cap-violation detector: sustained power above an active cap.
    CapViolation { cap_w: f64, window_w: f64 },
    /// Cap-violation episode ended (sustained readings back under cap).
    CapViolationEnded { cap_w: f64 },
    /// A pluggable `CapPolicy` planned the group budget at a barrier
    /// (recorded only when a non-default policy backend is installed:
    /// any backend but the ladder).
    PolicyPlan { policy: &'static str, epoch: u32, answered: u32, granted_w: f64 },
    /// Cross-node failover at a fleet barrier: requests shed at full
    /// queues were re-offered to the least-loaded nodes in the group.
    FailoverRouted { epoch: u32, moved: u32, dropped: u32 },
    /// A client population's AIMD controller moved its offered-rate
    /// multiplier: `timeouts` cut it multiplicatively, `recovery` raised
    /// it additively after a timeout-free control period.
    RateAdjusted { multiplier: f64, cause: &'static str },
    /// A per-node circuit breaker at the fleet barrier changed state
    /// (`closed` / `open` / `half_open`).
    BreakerTransition { epoch: u32, from: &'static str, to: &'static str },
    /// A node's brownout controller moved the highest admitted priority
    /// class (`shed` under pressure, `restore` with hysteresis).
    BrownoutShift { from_class: u32, to_class: u32, cause: &'static str },
}

impl EventKind {
    /// Stable machine-readable tag.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RungChange { .. } => "rung_change",
            EventKind::ThrottleFloor { .. } => "throttle_floor",
            EventKind::SelAppend { .. } => "sel_append",
            EventKind::DcmiSetLimit { .. } => "dcmi_set_limit",
            EventKind::DcmiGetLimit => "dcmi_get_limit",
            EventKind::DcmiActivate { .. } => "dcmi_activate",
            EventKind::Retry { .. } => "retry",
            EventKind::Timeout { .. } => "timeout",
            EventKind::HealthChange { .. } => "health_change",
            EventKind::BudgetRealloc { .. } => "budget_realloc",
            EventKind::Barrier { .. } => "barrier",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::FaultCleared { .. } => "fault_cleared",
            EventKind::BmcCrash { .. } => "bmc_crash",
            EventKind::WatchdogReboot { .. } => "watchdog_reboot",
            EventKind::FailsafeEngaged { .. } => "failsafe_engaged",
            EventKind::FailsafeReleased => "failsafe_released",
            EventKind::CapViolation { .. } => "cap_violation",
            EventKind::CapViolationEnded { .. } => "cap_violation_ended",
            EventKind::PolicyPlan { .. } => "policy_plan",
            EventKind::FailoverRouted { .. } => "failover_routed",
            EventKind::RateAdjusted { .. } => "rate_adjusted",
            EventKind::BreakerTransition { .. } => "breaker_transition",
            EventKind::BrownoutShift { .. } => "brownout_shift",
        }
    }

    /// `key=value` detail string, `;`-separated, stable field order.
    pub fn detail(&self) -> String {
        match self {
            EventKind::RungChange { from, to, cause, window_w } => {
                format!("from={from};to={to};cause={};window_w={window_w}", cause.as_str())
            }
            EventKind::ThrottleFloor { window_w } => format!("window_w={window_w}"),
            EventKind::SelAppend { event, datum } => format!("event={event};datum={datum}"),
            EventKind::DcmiSetLimit { limit_w, correction_ms } => {
                format!("limit_w={limit_w};correction_ms={correction_ms}")
            }
            EventKind::DcmiGetLimit => String::new(),
            EventKind::DcmiActivate { on } => format!("on={on}"),
            EventKind::Retry { attempts } => format!("attempts={attempts}"),
            EventKind::Timeout { attempts } => format!("attempts={attempts}"),
            EventKind::HealthChange { from, to } => format!("from={from};to={to}"),
            EventKind::BudgetRealloc { epoch, budget_w, answered, caps_pushed } => format!(
                "epoch={epoch};budget_w={budget_w};answered={answered};caps_pushed={caps_pushed}"
            ),
            EventKind::Barrier { epoch, answered, unresponsive, fleet_w } => format!(
                "epoch={epoch};answered={answered};unresponsive={unresponsive};fleet_w={fleet_w}"
            ),
            EventKind::FaultInjected { fault } => format!("fault={fault}"),
            EventKind::FaultCleared { fault } => format!("fault={fault}"),
            EventKind::BmcCrash { dead_ms } => format!("dead_ms={dead_ms}"),
            EventKind::WatchdogReboot { down_ms } => format!("down_ms={down_ms}"),
            EventKind::FailsafeEngaged { reason, window_w } => {
                format!("reason={reason};window_w={window_w}")
            }
            EventKind::FailsafeReleased => String::new(),
            EventKind::CapViolation { cap_w, window_w } => {
                format!("cap_w={cap_w};window_w={window_w}")
            }
            EventKind::CapViolationEnded { cap_w } => format!("cap_w={cap_w}"),
            EventKind::PolicyPlan { policy, epoch, answered, granted_w } => {
                format!("policy={policy};epoch={epoch};answered={answered};granted_w={granted_w}")
            }
            EventKind::FailoverRouted { epoch, moved, dropped } => {
                format!("epoch={epoch};moved={moved};dropped={dropped}")
            }
            EventKind::RateAdjusted { multiplier, cause } => {
                format!("multiplier={multiplier};cause={cause}")
            }
            EventKind::BreakerTransition { epoch, from, to } => {
                format!("epoch={epoch};from={from};to={to}")
            }
            EventKind::BrownoutShift { from_class, to_class, cause } => {
                format!("from_class={from_class};to_class={to_class};cause={cause}")
            }
        }
    }

    fn json_fields(&self, out: &mut String) {
        match self {
            EventKind::RungChange { from, to, cause, window_w } => {
                let _ = write!(
                    out,
                    r#","from":{from},"to":{to},"cause":"{}","window_w":{window_w}"#,
                    cause.as_str()
                );
            }
            EventKind::ThrottleFloor { window_w } => {
                let _ = write!(out, r#","window_w":{window_w}"#);
            }
            EventKind::SelAppend { event, datum } => {
                let _ = write!(out, r#","event":"{event}","datum":{datum}"#);
            }
            EventKind::DcmiSetLimit { limit_w, correction_ms } => {
                let _ = write!(out, r#","limit_w":{limit_w},"correction_ms":{correction_ms}"#);
            }
            EventKind::DcmiGetLimit => {}
            EventKind::DcmiActivate { on } => {
                let _ = write!(out, r#","on":{on}"#);
            }
            EventKind::Retry { attempts } | EventKind::Timeout { attempts } => {
                let _ = write!(out, r#","attempts":{attempts}"#);
            }
            EventKind::HealthChange { from, to } => {
                let _ = write!(out, r#","from":"{from}","to":"{to}""#);
            }
            EventKind::BudgetRealloc { epoch, budget_w, answered, caps_pushed } => {
                let _ = write!(
                    out,
                    r#","epoch":{epoch},"budget_w":{budget_w},"answered":{answered},"caps_pushed":{caps_pushed}"#
                );
            }
            EventKind::Barrier { epoch, answered, unresponsive, fleet_w } => {
                let _ = write!(
                    out,
                    r#","epoch":{epoch},"answered":{answered},"unresponsive":{unresponsive},"fleet_w":{fleet_w}"#
                );
            }
            EventKind::FaultInjected { fault } | EventKind::FaultCleared { fault } => {
                let _ = write!(out, r#","fault":"{fault}""#);
            }
            EventKind::BmcCrash { dead_ms } => {
                let _ = write!(out, r#","dead_ms":{dead_ms}"#);
            }
            EventKind::WatchdogReboot { down_ms } => {
                let _ = write!(out, r#","down_ms":{down_ms}"#);
            }
            EventKind::FailsafeEngaged { reason, window_w } => {
                let _ = write!(out, r#","reason":"{reason}","window_w":{window_w}"#);
            }
            EventKind::FailsafeReleased => {}
            EventKind::CapViolation { cap_w, window_w } => {
                let _ = write!(out, r#","cap_w":{cap_w},"window_w":{window_w}"#);
            }
            EventKind::CapViolationEnded { cap_w } => {
                let _ = write!(out, r#","cap_w":{cap_w}"#);
            }
            EventKind::PolicyPlan { policy, epoch, answered, granted_w } => {
                let _ = write!(
                    out,
                    r#","policy":"{policy}","epoch":{epoch},"answered":{answered},"granted_w":{granted_w}"#
                );
            }
            EventKind::FailoverRouted { epoch, moved, dropped } => {
                let _ = write!(out, r#","epoch":{epoch},"moved":{moved},"dropped":{dropped}"#);
            }
            EventKind::RateAdjusted { multiplier, cause } => {
                let _ = write!(out, r#","multiplier":{multiplier},"cause":"{cause}""#);
            }
            EventKind::BreakerTransition { epoch, from, to } => {
                let _ = write!(out, r#","epoch":{epoch},"from":"{from}","to":"{to}""#);
            }
            EventKind::BrownoutShift { from_class, to_class, cause } => {
                let _ = write!(
                    out,
                    r#","from_class":{from_class},"to_class":{to_class},"cause":"{cause}""#
                );
            }
        }
    }
}

/// One log entry: what happened, when (simulated seconds), and where.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Per-log sequence number (monotonic even across ring eviction).
    pub seq: u64,
    /// Simulated time in seconds.
    pub t_s: f64,
    /// Fleet node index, when known; `None` for manager/fleet-scope events.
    pub node: Option<u32>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// One JSONL line (no trailing newline), stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, r#"{{"seq":{},"t_s":{}"#, self.seq, self.t_s);
        match self.node {
            Some(n) => {
                let _ = write!(out, r#","node":{n}"#);
            }
            None => out.push_str(r#","node":null"#),
        }
        let _ = write!(out, r#","kind":"{}""#, self.kind.name());
        self.kind.json_fields(&mut out);
        out.push('}');
        out
    }

    fn to_csv_row(&self) -> String {
        let node = self.node.map_or(String::new(), |n| n.to_string());
        format!("{},{},{},{},{}", self.seq, self.t_s, node, self.kind.name(), self.kind.detail())
    }
}

/// Bounded ring of [`Event`]s. Capacity 0 means disabled: `record` is a
/// single branch and nothing is ever stored or allocated.
#[derive(Clone, Debug, PartialEq)]
pub struct EventLog {
    ring: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl EventLog {
    /// An active log holding at most `capacity` events (oldest evicted).
    pub fn bounded(capacity: usize) -> Self {
        EventLog { ring: VecDeque::with_capacity(capacity), capacity, next_seq: 0, dropped: 0 }
    }

    /// A log that records nothing.
    pub fn disabled() -> Self {
        EventLog { ring: VecDeque::new(), capacity: 0, next_seq: 0, dropped: 0 }
    }

    /// Whether [`EventLog::record`] stores anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append a fleet/manager-scope event (no node attribution).
    #[inline]
    pub fn record(&mut self, t_s: f64, kind: EventKind) {
        self.record_for(t_s, None, kind);
    }

    /// Append an event attributed to a fleet node index.
    #[inline]
    pub fn record_for(&mut self, t_s: f64, node: Option<u32>, kind: EventKind) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back(Event { seq, t_s, node, kind });
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// JSONL export of the retained events.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(self.ring.iter())
    }

    /// CSV export of the retained events.
    pub fn to_csv(&self) -> String {
        events_to_csv(self.ring.iter())
    }
}

/// Render events as JSON Lines: one object per line, stable key order.
pub fn events_to_jsonl<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Render events as CSV with a header row.
pub fn events_to_csv<'a>(events: impl IntoIterator<Item = &'a Event>) -> String {
    let mut out = String::from("seq,t_s,node,kind,detail\n");
    for e in events {
        out.push_str(&e.to_csv_row());
        out.push('\n');
    }
    out
}

/// Merge several logs into one deterministic stream.
///
/// Each input is `(node_tag, log)`; a `Some` tag overrides the node field of
/// every event from that log (per-node logs don't know their fleet index).
/// Order is total and independent of how the logs were produced: by
/// simulated time, then input position, then per-log sequence — so a serial
/// and a parallel fleet run over the same seed merge to byte-identical
/// output.
pub fn merge_streams<'a>(
    streams: impl IntoIterator<Item = (Option<u32>, &'a EventLog)>,
) -> Vec<Event> {
    let mut tagged: Vec<(usize, Event)> = Vec::new();
    for (pos, (tag, log)) in streams.into_iter().enumerate() {
        for e in log.iter() {
            let mut e = e.clone();
            if tag.is_some() {
                e.node = tag;
            }
            tagged.push((pos, e));
        }
    }
    tagged.sort_by(|(pa, a), (pb, b)| {
        a.t_s.total_cmp(&b.t_s).then(pa.cmp(pb)).then(a.seq.cmp(&b.seq))
    });
    tagged.into_iter().map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        log.record(0.0, EventKind::DcmiGetLimit);
        assert!(!log.is_enabled());
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 0);
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::bounded(3);
        for i in 0..5u32 {
            log.record(i as f64, EventKind::Retry { attempts: i });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.recorded(), 5);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_lines_are_stable_and_self_describing() {
        let mut log = EventLog::bounded(8);
        log.record_for(
            0.25,
            Some(3),
            EventKind::RungChange { from: 0, to: 1, cause: RungCause::OverCap, window_w: 151.5 },
        );
        log.record(
            0.5,
            EventKind::Barrier { epoch: 0, answered: 7, unresponsive: 1, fleet_w: 900.0 },
        );
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"seq":0,"t_s":0.25,"node":3,"kind":"rung_change","from":0,"to":1,"cause":"over_cap","window_w":151.5}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":1,"t_s":0.5,"node":null,"kind":"barrier","epoch":0,"answered":7,"unresponsive":1,"fleet_w":900}"#
        );
    }

    #[test]
    fn csv_has_header_and_detail_column() {
        let mut log = EventLog::bounded(4);
        log.record(1.0, EventKind::Timeout { attempts: 6 });
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "seq,t_s,node,kind,detail");
        assert_eq!(lines[1], "0,1,,timeout,attempts=6");
    }

    #[test]
    fn merge_orders_by_time_then_stream_then_seq() {
        let mut a = EventLog::bounded(8);
        let mut b = EventLog::bounded(8);
        a.record(2.0, EventKind::DcmiGetLimit);
        a.record(1.0, EventKind::DcmiGetLimit); // same-stream later seq, earlier time
        b.record(1.0, EventKind::Retry { attempts: 2 });
        let merged = merge_streams([(Some(0), &a), (Some(1), &b)]);
        // time 1.0 first; within it, stream 0 before stream 1.
        assert_eq!(merged[0].node, Some(0));
        assert_eq!(merged[0].seq, 1);
        assert_eq!(merged[1].node, Some(1));
        assert_eq!(merged[2].t_s, 2.0);
    }
}

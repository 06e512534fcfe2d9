//! Scheduler decision audit: replays every `scheduler.decision` record
//! against the Algorithm 2 rule and flags contradictions.
//!
//! The runtime emits each decision *with* the inputs that produced it
//! (prediction, band, candidate neighbourhood, quarantine state), so
//! the rule can be re-evaluated offline:
//!
//! ```text
//! if   predicted_loss > band_hi:  switch_up    (restart if no model above)
//! elif predicted_loss < band_lo
//!      and mlp and a model below: switch_down
//! else:                           keep
//! ```
//!
//! Older or foreign traces without the enriched fields are checked
//! coarsely (an action must at least be *consistent* with the band);
//! records with a `null` prediction are counted as skipped, never
//! flagged.

use crate::event::{Trace, TraceEvent};
use sfn_obs::json::{obj, ToJson, Value};
use std::fmt::Write as _;

/// One decision that contradicts the replayed rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Contradiction {
    /// Step the decision was taken at.
    pub step: u64,
    /// Model the decision was taken on.
    pub model: String,
    /// Action the replay expects.
    pub expected: String,
    /// Action the trace records.
    pub actual: String,
    /// Why the replay disagrees.
    pub reason: String,
}

/// The audit result over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// `scheduler.decision` records seen.
    pub decisions: u64,
    /// Records skipped for missing/null inputs (not contradictions).
    pub skipped: u64,
    /// Records audited with the full enriched rule (vs. coarse band
    /// consistency only).
    pub full_replays: u64,
    /// `parser.rejected` records — untrusted inputs (offline
    /// artifacts, `SFN_FAULTS` schedules) a hardened boundary refused.
    pub parser_rejected: u64,
    /// `fuzz.finding` records — crashes/oracle divergences an `sfn-fuzz`
    /// run reported into this trace.
    pub fuzz_findings: u64,
    /// `serve.admit` records with `decision=admitted`.
    pub serve_admitted: u64,
    /// `serve.admit` records with `decision=refused`.
    pub serve_refused: u64,
    /// `serve.shed` records — admitted work shed at dequeue.
    pub serve_sheds: u64,
    /// `serve.brownout` records — rung transitions, each checked for
    /// chain consistency (adjacent levels, `from` matching the
    /// previous `to`).
    pub brownout_transitions: u64,
    /// The contradictions found.
    pub contradictions: Vec<Contradiction>,
}

impl AuditReport {
    /// True when no decision contradicted the replay.
    pub fn clean(&self) -> bool {
        self.contradictions.is_empty()
    }

    /// Machine-readable audit document (`sfn-trace/audit@1`): the
    /// counts plus every contradiction.
    pub fn to_json(&self) -> String {
        let contradictions = self
            .contradictions
            .iter()
            .map(|c| {
                obj([
                    ("step", c.step.to_json_value()),
                    ("model", c.model.to_json_value()),
                    ("expected", c.expected.to_json_value()),
                    ("actual", c.actual.to_json_value()),
                ])
            })
            .collect();
        obj([
            ("schema", "sfn-trace/audit@1".to_json_value()),
            ("decisions", self.decisions.to_json_value()),
            ("full_replays", self.full_replays.to_json_value()),
            ("skipped", self.skipped.to_json_value()),
            ("parser_rejected", self.parser_rejected.to_json_value()),
            ("fuzz_findings", self.fuzz_findings.to_json_value()),
            ("contradictions", Value::Arr(contradictions)),
        ])
        .to_json()
    }

    /// Renders the human-readable audit summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== sfn-trace decision audit ==\ndecisions={} full_replays={} skipped={} contradictions={}",
            self.decisions,
            self.full_replays,
            self.skipped,
            self.contradictions.len()
        );
        if self.parser_rejected > 0 || self.fuzz_findings > 0 {
            let _ = writeln!(
                out,
                "hardened boundaries: parser_rejected={} fuzz_findings={}",
                self.parser_rejected, self.fuzz_findings
            );
        }
        if self.serve_admitted + self.serve_refused + self.serve_sheds + self.brownout_transitions
            > 0
        {
            let _ = writeln!(
                out,
                "serving: admitted={} refused={} sheds={} brownout_transitions={}",
                self.serve_admitted, self.serve_refused, self.serve_sheds, self.brownout_transitions
            );
        }
        for c in &self.contradictions {
            let _ = writeln!(
                out,
                "step {} on {}: recorded {:?}, replay expects {:?} ({})",
                c.step, c.model, c.actual, c.expected, c.reason
            );
        }
        out
    }
}

fn replay_full(pl: f64, hi: f64, lo: f64, mlp: bool, up: &str, down: &str) -> (&'static str, String) {
    if pl > hi {
        if up != "none" {
            ("switch_up", format!("loss {pl:.4e} > band_hi {hi:.4e} with {up} above"))
        } else {
            ("restart", format!("loss {pl:.4e} > band_hi {hi:.4e} with no model above"))
        }
    } else if pl < lo && mlp && down != "none" {
        ("switch_down", format!("loss {pl:.4e} < band_lo {lo:.4e} with {down} below"))
    } else {
        ("keep", format!("loss {pl:.4e} within [{lo:.4e}, {hi:.4e}] (or nowhere to go)"))
    }
}

fn audit_one(e: &TraceEvent, report: &mut AuditReport) {
    let actual = e.str("action").unwrap_or("?").to_string();
    let step = e.u64("step").unwrap_or(0);
    let model = e.str("model").unwrap_or("?").to_string();
    let (Some(pl), Some(hi), Some(lo)) = (e.f64("predicted_loss"), e.f64("band_hi"), e.f64("band_lo"))
    else {
        // A null prediction (warm-up NaN) or a pre-envelope record:
        // nothing to replay.
        report.skipped += 1;
        return;
    };
    let mut push = |expected: &str, reason: String| {
        report.contradictions.push(Contradiction {
            step,
            model: model.clone(),
            expected: expected.to_string(),
            actual: actual.clone(),
            reason,
        });
    };
    match (e.bool("mlp"), e.str("up"), e.str("down")) {
        (Some(mlp), Some(up), Some(down)) => {
            report.full_replays += 1;
            let (expected, reason) = replay_full(pl, hi, lo, mlp, up, down);
            if expected != actual {
                push(expected, reason);
            }
        }
        _ => {
            // Coarse mode: without the candidate neighbourhood the
            // exact action is ambiguous, but the band still constrains
            // it. Escalations require an over-band prediction and
            // relaxations an under-band one.
            match actual.as_str() {
                "switch_up" | "restart" if pl <= hi => {
                    push("keep", format!("escalation with loss {pl:.4e} <= band_hi {hi:.4e}"));
                }
                "switch_down" if pl >= lo => {
                    push("keep", format!("relaxation with loss {pl:.4e} >= band_lo {lo:.4e}"));
                }
                "keep" if pl > hi => {
                    push("switch_up", format!("keep with loss {pl:.4e} > band_hi {hi:.4e}"));
                }
                _ => {}
            }
        }
    }
}

/// Replays the brownout rung chain: transitions must move one level
/// at a time, and each must start where the previous one ended. A
/// violated chain means the controller (or the trace) lies about how
/// degradation progressed — exactly what the overload proof leans on.
fn audit_brownout(trace: &Trace, report: &mut AuditReport) {
    let mut prev_to: Option<u64> = None;
    for (seq, e) in trace.of_kind("serve.brownout").enumerate() {
        report.brownout_transitions += 1;
        let (Some(from), Some(to)) = (e.u64("from_level"), e.u64("to_level")) else {
            report.skipped += 1;
            continue;
        };
        let mut push = |expected: String, reason: String| {
            report.contradictions.push(Contradiction {
                step: seq as u64,
                model: "brownout".to_string(),
                expected,
                actual: format!("{from}->{to}"),
                reason,
            });
        };
        if from.abs_diff(to) != 1 {
            push(
                "adjacent levels".to_string(),
                format!("rung jumped {from}->{to}; transitions must move one level"),
            );
        }
        if let Some(prev) = prev_to {
            if from != prev {
                push(
                    format!("from_level {prev}"),
                    format!("chain broken: previous transition ended at level {prev}"),
                );
            }
        }
        prev_to = Some(to);
    }
}

/// Replays every `scheduler.decision` in the trace, checks the
/// brownout rung chain, and tallies the hardened-boundary events
/// (`parser.rejected`, `fuzz.finding`) plus serving activity.
pub fn audit(trace: &Trace) -> AuditReport {
    let mut report = AuditReport::default();
    for e in trace.of_kind("scheduler.decision") {
        report.decisions += 1;
        audit_one(e, &mut report);
    }
    audit_brownout(trace, &mut report);
    report.parser_rejected = trace.count("parser.rejected");
    report.fuzz_findings = trace.count("fuzz.finding");
    for e in trace.of_kind("serve.admit") {
        match e.str("decision") {
            Some("refused") => report.serve_refused += 1,
            _ => report.serve_admitted += 1,
        }
    }
    report.serve_sheds = trace.count("serve.shed");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;

    fn decision(pl: &str, action: &str, enriched: bool) -> String {
        let extra = if enriched { ",\"mlp\":true,\"up\":\"M9\",\"down\":\"M5\"" } else { "" };
        format!(
            "{{\"ts\":1.0,\"level\":\"info\",\"kind\":\"scheduler.decision\",\"step\":20,\"model\":\"M7\",\
             \"predicted_loss\":{pl},\"band_lo\":0.009,\"band_hi\":0.015{extra},\"action\":\"{action}\"}}"
        )
    }

    #[test]
    fn consistent_decisions_audit_clean() {
        let t = parse_trace(&[
            decision("0.010", "keep", true),
            decision("0.020", "switch_up", true),
            decision("0.001", "switch_down", true),
        ]
        .join("\n"));
        let r = audit(&t);
        assert_eq!(r.decisions, 3);
        assert_eq!(r.full_replays, 3);
        assert!(r.clean(), "{:?}", r.contradictions);
    }

    #[test]
    fn contradictions_are_flagged_with_expected_action() {
        let t = parse_trace(&decision("0.020", "keep", true));
        let r = audit(&t);
        assert_eq!(r.contradictions.len(), 1);
        let c = &r.contradictions[0];
        assert_eq!(c.expected, "switch_up");
        assert_eq!(c.actual, "keep");
        assert_eq!(c.step, 20);
        assert!(r.render().contains("switch_up"), "{}", r.render());
    }

    #[test]
    fn json_document_carries_control_characters_intact() {
        // Strings come from the trace verbatim; ESC and friends must be
        // escaped so the document parses back to the same text.
        let line = decision("0.020", "ke\\u001bep", true).replace("\"M7\"", "\"M\\u001b7\\u0001\"");
        let r = audit(&parse_trace(&line));
        assert_eq!(r.contradictions.len(), 1);
        let doc = sfn_obs::json::parse(&r.to_json()).expect("audit JSON parses");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("sfn-trace/audit@1"));
        let c = &doc.get("contradictions").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(c.get("model").and_then(Value::as_str), Some("M\u{1b}7\u{1}"));
        assert_eq!(c.get("actual").and_then(Value::as_str), Some("ke\u{1b}ep"));
        assert_eq!(c.get("expected").and_then(Value::as_str), Some("switch_up"));
    }

    #[test]
    fn restart_expected_when_no_model_above() {
        let line = "{\"ts\":1.0,\"kind\":\"scheduler.decision\",\"step\":5,\"model\":\"M9\",\
                    \"predicted_loss\":0.02,\"band_lo\":0.009,\"band_hi\":0.015,\
                    \"mlp\":true,\"up\":\"none\",\"down\":\"M5\",\"action\":\"switch_up\"}";
        let r = audit(&parse_trace(line));
        assert_eq!(r.contradictions[0].expected, "restart");
    }

    #[test]
    fn hardened_rejections_are_counted_not_flagged() {
        let t = parse_trace(
            "{\"ts\":0.5,\"level\":\"warn\",\"kind\":\"parser.rejected\",\"boundary\":\"sfn_faults\",\"error\":\"at byte 0: expected value\"}\n\
             {\"ts\":0.6,\"level\":\"warn\",\"kind\":\"parser.rejected\",\"boundary\":\"artifacts\",\"error\":\"at byte 3: x\"}\n\
             {\"ts\":0.7,\"level\":\"warn\",\"kind\":\"fuzz.finding\",\"target\":\"json\",\"finding\":\"panic\"}\n",
        );
        let r = audit(&t);
        assert_eq!(r.parser_rejected, 2);
        assert_eq!(r.fuzz_findings, 1);
        assert!(r.clean(), "rejections are visibility, not contradictions");
        assert!(r.render().contains("parser_rejected=2"), "{}", r.render());
        // A trace without them keeps the summary line quiet.
        let quiet = audit(&parse_trace(&decision("0.010", "keep", true)));
        assert!(!quiet.render().contains("parser_rejected"), "{}", quiet.render());
    }

    fn brownout(from: u64, to: u64) -> String {
        let names = ["normal", "relax_quality", "surrogate_only", "reduced_steps", "shed_low_priority"];
        format!(
            "{{\"ts\":1.0,\"level\":\"warn\",\"kind\":\"serve.brownout\",\"from\":\"{}\",\"to\":\"{}\",\"from_level\":{from},\"to_level\":{to}}}",
            names[from as usize], names[to as usize]
        )
    }

    #[test]
    fn consistent_brownout_chains_audit_clean() {
        let t = parse_trace(
            &[brownout(0, 1), brownout(1, 2), brownout(2, 1), brownout(1, 0)].join("\n"),
        );
        let r = audit(&t);
        assert_eq!(r.brownout_transitions, 4);
        assert!(r.clean(), "{:?}", r.contradictions);
        assert!(r.render().contains("brownout_transitions=4"), "{}", r.render());
    }

    #[test]
    fn rung_jumps_and_broken_chains_are_contradictions() {
        // 0->2 is a two-level jump.
        let jump = audit(&parse_trace(&brownout(0, 2)));
        assert_eq!(jump.contradictions.len(), 1);
        assert!(jump.contradictions[0].reason.contains("one level"), "{:?}", jump.contradictions);
        // 0->1 then 2->3: the second transition starts where nothing ended.
        let broken = audit(&parse_trace(&[brownout(0, 1), brownout(2, 3)].join("\n")));
        assert_eq!(broken.contradictions.len(), 1);
        assert!(broken.contradictions[0].reason.contains("chain broken"), "{:?}", broken.contradictions);
        assert_eq!(broken.contradictions[0].actual, "2->3");
    }

    #[test]
    fn serve_activity_is_tallied_not_flagged() {
        let t = parse_trace(
            "{\"ts\":0.1,\"level\":\"info\",\"kind\":\"serve.admit\",\"tenant\":\"a\",\"decision\":\"admitted\",\"priority\":1}\n\
             {\"ts\":0.2,\"level\":\"info\",\"kind\":\"serve.admit\",\"tenant\":\"a\",\"decision\":\"refused\",\"reason\":\"queue_full\",\"priority\":1}\n\
             {\"ts\":0.3,\"level\":\"warn\",\"kind\":\"serve.shed\",\"tenant\":\"a\",\"reason\":\"queue_deadline\"}\n",
        );
        let r = audit(&t);
        assert_eq!((r.serve_admitted, r.serve_refused, r.serve_sheds), (1, 1, 1));
        assert!(r.clean(), "serving activity is visibility, not contradictions");
        assert!(r.render().contains("serving: admitted=1"), "{}", r.render());
        // A serve-free trace keeps the summary line quiet.
        let quiet = audit(&parse_trace(&decision("0.010", "keep", true)));
        assert!(!quiet.render().contains("serving:"), "{}", quiet.render());
    }

    #[test]
    fn null_predictions_are_skipped_not_flagged() {
        let t = parse_trace(&decision("null", "keep", true));
        let r = audit(&t);
        assert_eq!(r.skipped, 1);
        assert!(r.clean());
    }

    #[test]
    fn coarse_mode_checks_band_consistency_only() {
        // keep inside the band, no enriched fields: clean.
        let ok = audit(&parse_trace(&decision("0.010", "keep", false)));
        assert!(ok.clean());
        assert_eq!(ok.full_replays, 0);
        // switch_down above band_lo: contradiction even coarsely.
        let bad = audit(&parse_trace(&decision("0.010", "switch_down", false)));
        assert_eq!(bad.contradictions.len(), 1);
        // switch_down below band_lo: plausible (down model unknown).
        let plausible = audit(&parse_trace(&decision("0.001", "switch_down", false)));
        assert!(plausible.clean());
    }
}

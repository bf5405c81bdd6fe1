//! Third-party service submission (Appendix A).
//!
//! The live watchdog accepts externally submitted services for evaluation,
//! gated by access codes; "Prudentia allows externally submitted services
//! to be evaluated as a part of its testbed" (§1, §7, Appendix A). This
//! module implements the same workflow for the simulated watchdog: a
//! submission queue with access-code validation, per-code rate limiting,
//! and an evaluation step that runs the submitted service against the
//! standard incumbents and produces the report a submitter receives.

use crate::config::NetworkSetting;
use crate::error::PrudentiaError;
use crate::executor::{execute_pairs, ExecutorConfig};
use crate::scheduler::{DurationPolicy, PairSpec, TrialPolicy};
use prudentia_apps::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Outcome classification for one incumbent in a submission report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The incumbent kept ≥ 90% of its fair share.
    Ok,
    /// The incumbent got 50–90% of its fair share.
    Unfair,
    /// The incumbent got < 50% of its fair share.
    Harmful,
}

impl Verdict {
    fn from_share(share: f64) -> Verdict {
        if share >= 0.9 {
            Verdict::Ok
        } else if share >= 0.5 {
            Verdict::Unfair
        } else {
            Verdict::Harmful
        }
    }
}

/// The per-incumbent line of a submission report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportLine {
    /// Incumbent name.
    pub incumbent: String,
    /// Setting name.
    pub setting: String,
    /// Incumbent's median MmF share.
    pub incumbent_share: f64,
    /// The submitted service's median MmF share.
    pub submitted_share: f64,
    /// Classification.
    pub verdict: Verdict,
}

/// The evaluation report a submitter receives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmissionReport {
    /// Name of the submitted service.
    pub service: String,
    /// Per-incumbent results.
    pub lines: Vec<ReportLine>,
}

impl SubmissionReport {
    /// The worst verdict across all incumbents.
    pub fn overall(&self) -> Verdict {
        self.lines
            .iter()
            .map(|l| l.verdict)
            .max_by_key(|v| match v {
                Verdict::Ok => 0,
                Verdict::Unfair => 1,
                Verdict::Harmful => 2,
            })
            .unwrap_or(Verdict::Ok)
    }
}

/// Errors from the submission pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmissionError {
    /// The access code is not on the list.
    InvalidAccessCode,
    /// This code has exhausted its submission budget.
    QuotaExceeded,
}

/// Gatekeeper for third-party submissions.
pub struct SubmissionDesk {
    codes: HashMap<String, u32>,
    queue: Vec<(String, ServiceSpec)>,
}

/// Submissions allowed per access code (the website throttles test runs).
pub const SUBMISSIONS_PER_CODE: u32 = 5;

impl SubmissionDesk {
    /// A desk honouring the given access codes.
    pub fn new(codes: impl IntoIterator<Item = String>) -> Self {
        SubmissionDesk {
            codes: codes
                .into_iter()
                .map(|c| (c, SUBMISSIONS_PER_CODE))
                .collect(),
            queue: Vec::new(),
        }
    }

    /// A desk honouring the access codes published in the paper's
    /// Appendix A.
    pub fn with_published_codes() -> Self {
        Self::new(
            [
                "KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ",
                "A7mH2gHPmtlhbpb8ajfe48oCzA7hp6VB",
                "5PWWIvTUxZSYVhIuEiBEmOOOog8zgrGa",
                "XrVzJ3evvkVpoAf3k54mYuY0tCgjTD2k",
                "bTXmWjSdAmQf4ULItqH2JCR5oX8jZvhL",
            ]
            .map(String::from),
        )
    }

    /// Queue a service for evaluation.
    pub fn submit(&mut self, code: &str, spec: ServiceSpec) -> Result<(), SubmissionError> {
        let Some(left) = self.codes.get_mut(code) else {
            return Err(SubmissionError::InvalidAccessCode);
        };
        if *left == 0 {
            return Err(SubmissionError::QuotaExceeded);
        }
        *left -= 1;
        self.queue.push((code.to_string(), spec));
        Ok(())
    }

    /// Pending submissions.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Evaluate the next pending submission against `incumbents` in the
    /// given settings; returns `None` when the queue is empty. An invalid
    /// policy or setting is an error that leaves the submission queued.
    pub fn evaluate_next(
        &mut self,
        incumbents: &[ServiceSpec],
        settings: &[NetworkSetting],
        policy: TrialPolicy,
        duration: DurationPolicy,
    ) -> Result<Option<SubmissionReport>, PrudentiaError> {
        let Some((_, spec)) = self.queue.first() else {
            return Ok(None);
        };
        let pairs: Vec<PairSpec> = settings
            .iter()
            .flat_map(|setting| {
                incumbents.iter().map(|inc| PairSpec {
                    contender: spec.clone(),
                    incumbent: inc.clone(),
                    setting: setting.clone(),
                })
            })
            .collect();
        let (outcomes, _) = execute_pairs(&pairs, &ExecutorConfig::new(policy, duration, 1))?;
        let (_, spec) = self.queue.remove(0);
        let lines = outcomes
            .into_iter()
            .map(|out| ReportLine {
                verdict: Verdict::from_share(out.incumbent_mmf_median),
                incumbent_share: out.incumbent_mmf_median,
                submitted_share: out.contender_mmf_median,
                incumbent: out.incumbent,
                setting: out.setting,
            })
            .collect();
        Ok(Some(SubmissionReport {
            service: spec.name().to_string(),
            lines,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prudentia_apps::Service;

    fn tiny() -> (TrialPolicy, DurationPolicy) {
        (
            TrialPolicy {
                min_trials: 2,
                batch: 1,
                max_trials: 2,
            },
            DurationPolicy::Quick,
        )
    }

    #[test]
    fn invalid_code_rejected() {
        let mut desk = SubmissionDesk::with_published_codes();
        let err = desk.submit("wrong-code", Service::IperfReno.spec());
        assert_eq!(err, Err(SubmissionError::InvalidAccessCode));
        assert_eq!(desk.pending(), 0);
    }

    #[test]
    fn quota_enforced() {
        let mut desk = SubmissionDesk::new(["c0de".to_string()]);
        for _ in 0..SUBMISSIONS_PER_CODE {
            desk.submit("c0de", Service::IperfReno.spec())
                .expect("within quota");
        }
        assert_eq!(
            desk.submit("c0de", Service::IperfReno.spec()),
            Err(SubmissionError::QuotaExceeded)
        );
        assert_eq!(desk.pending(), SUBMISSIONS_PER_CODE as usize);
    }

    #[test]
    fn published_codes_work() {
        let mut desk = SubmissionDesk::with_published_codes();
        desk.submit(
            "KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ",
            Service::IperfCubic.spec(),
        )
        .expect("published code accepted");
        assert_eq!(desk.pending(), 1);
    }

    #[test]
    fn evaluation_produces_verdicts() {
        let mut desk = SubmissionDesk::new(["k".to_string()]);
        // Submit an aggressive multi-flow service.
        desk.submit(
            "k",
            prudentia_apps::iperf_n_flows("5x Reno", prudentia_cc::CcaKind::NewReno, 5),
        )
        .expect("submit");
        let (policy, duration) = tiny();
        let incumbents = [Service::IperfReno.spec()];
        let settings = [NetworkSetting::highly_constrained()];
        // An unsatisfiable policy is rejected before the queue pops.
        let bad = TrialPolicy {
            min_trials: 0,
            ..policy
        };
        let err = desk.evaluate_next(&incumbents, &settings, bad, duration);
        assert_eq!(err.unwrap_err().exit_code(), 6);
        assert_eq!(
            desk.pending(),
            1,
            "a rejected evaluation keeps the submission"
        );
        let report = desk
            .evaluate_next(&incumbents, &settings, policy, duration)
            .expect("valid config")
            .expect("one pending");
        assert_eq!(report.lines.len(), 1);
        // Five flows against one: the single-flow incumbent must lose.
        assert!(report.lines[0].incumbent_share < 0.9);
        assert_ne!(report.overall(), Verdict::Ok);
        // Queue drained.
        assert!(desk
            .evaluate_next(&[], &[], policy, duration)
            .expect("valid config")
            .is_none());
    }
}

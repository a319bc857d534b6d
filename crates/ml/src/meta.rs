//! Meta classification (Section 3.5).
//!
//! BINGO! trains one classifier per feature-space variant and combines
//! them at run time with a meta decision function
//!
//! ```text
//! Meta(V, D, C) = +1  when Σ wᵢ·res(vᵢ) > t₁
//!                 -1  when Σ wᵢ·res(vᵢ) < t₂
//!                  0  otherwise (abstention)
//! ```
//!
//! with the three instances the paper highlights: **unanimous** decision,
//! **majority** decision, and the **ξα-weighted average** where classifier
//! i is weighted by its estimated precision. "Unanimous and weighted
//! average decisions improved precision from values around 80 percent to
//! values above 90 percent."
//!
//! [`MetaPolicy::decide`] is the one implementation: the crawl's judge
//! and the §3.5 experiment both reach it through the core crate's
//! `TopicModel`. A document is accepted only at +1; abstention counts as
//! rejection, so `t₂` never has to be evaluated.

use serde::{Deserialize, Serialize};

/// The meta decision-function instance to apply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MetaPolicy {
    /// All classifiers must agree for a definite decision:
    /// `wᵢ = 1, t₁ = h - 0.5 = -t₂`.
    Unanimous,
    /// Majority vote: `wᵢ = 1, t₁ = t₂ = 0`.
    Majority,
    /// ξα-precision weighted average: `wᵢ = precision_ξα(vᵢ), t₁ = t₂ = 0`
    /// (a precision below 0.01 counts as 0.01).
    WeightedAverage,
}

impl MetaPolicy {
    /// The meta decision over a committee's `(confidence, ξα precision)`
    /// votes, where a member votes `res(vᵢ) = +1` when its signed
    /// confidence is `>= 0`. Returns `(accepted, confidence)`: the
    /// confidence is the members' mean, kept `>= 0` on acceptance and
    /// below zero on rejection or abstention. An empty committee
    /// rejects.
    pub fn decide(self, votes: impl IntoIterator<Item = (f32, f32)>) -> (bool, f32) {
        let weighted = self == MetaPolicy::WeightedAverage;
        let (mut members, mut vote_sum, mut conf_sum) = (0usize, 0.0f32, 0.0f32);
        for (conf, precision) in votes {
            members += 1;
            conf_sum += conf;
            let w = if weighted { precision.max(0.01) } else { 1.0 };
            vote_sum += w * if conf >= 0.0 { 1.0 } else { -1.0 };
        }
        if members == 0 {
            return (false, -f32::EPSILON);
        }
        let h = members as f32;
        let t1 = match self {
            MetaPolicy::Unanimous => h - 0.5,
            MetaPolicy::Majority | MetaPolicy::WeightedAverage => 0.0,
        };
        let mean_conf = conf_sum / h;
        if vote_sum > t1 {
            (true, mean_conf.max(0.0))
        } else {
            // Negative or abstaining: report a non-positive confidence.
            (false, mean_conf.min(-f32::EPSILON))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Votes of members with these confidences and precisions.
    fn votes(confidences: &[f32], precisions: &[f32]) -> Vec<(f32, f32)> {
        confidences
            .iter()
            .copied()
            .zip(precisions.iter().copied())
            .collect()
    }

    #[test]
    fn unanimous_requires_agreement() {
        let all_yes = votes(&[1.0, 2.0, 0.5], &[1.0; 3]);
        assert!(MetaPolicy::Unanimous.decide(all_yes).0);

        let split = votes(&[1.0, 1.0, -1.0], &[1.0; 3]);
        let (accepted, conf) = MetaPolicy::Unanimous.decide(split);
        assert!(!accepted, "a split committee abstains, which rejects");
        assert!(conf < 0.0);

        let all_no = votes(&[-1.0, -1.0, -2.0], &[1.0; 3]);
        assert!(!MetaPolicy::Unanimous.decide(all_no).0);
    }

    #[test]
    fn majority_decides_by_count() {
        let two_of_three = votes(&[1.0, 1.0, -1.0], &[1.0; 3]);
        assert!(MetaPolicy::Majority.decide(two_of_three).0);

        let one_of_three = votes(&[1.0, -1.0, -1.0], &[1.0; 3]);
        assert!(!MetaPolicy::Majority.decide(one_of_three).0);

        // An even split abstains (sum == 0), which rejects.
        let tie = votes(&[1.0, -1.0], &[1.0; 2]);
        assert!(!MetaPolicy::Majority.decide(tie).0);
    }

    #[test]
    fn weighted_average_respects_precision() {
        // One confident high-precision classifier outvotes two weak ones.
        let heavy = votes(&[1.0, -1.0, -1.0], &[0.95, 0.3, 0.3]);
        assert!(MetaPolicy::WeightedAverage.decide(heavy).0);

        // With equal precisions the majority wins instead.
        let even = votes(&[1.0, -1.0, -1.0], &[0.5, 0.5, 0.5]);
        assert!(!MetaPolicy::WeightedAverage.decide(even).0);
    }

    #[test]
    fn empty_committee_rejects() {
        for policy in [
            MetaPolicy::Unanimous,
            MetaPolicy::Majority,
            MetaPolicy::WeightedAverage,
        ] {
            let (accepted, conf) = policy.decide(std::iter::empty());
            assert!(!accepted, "{policy:?} accepted for an empty committee");
            assert!(conf < 0.0);
        }
    }

    #[test]
    fn confidences_are_averaged() {
        let (accepted, conf) = MetaPolicy::Majority.decide(votes(&[2.0, 1.0], &[1.0; 2]));
        assert!(accepted);
        assert_eq!(conf, 1.5);
        // A rejection keeps the mean when it is already negative ...
        let (accepted, conf) = MetaPolicy::Majority.decide(votes(&[-2.0, -1.0], &[1.0; 2]));
        assert!(!accepted);
        assert_eq!(conf, -1.5);
        // ... and pushes a non-negative mean just below zero.
        let (accepted, conf) = MetaPolicy::Unanimous.decide(votes(&[2.0, -1.0], &[1.0; 2]));
        assert!(!accepted);
        assert_eq!(conf, -f32::EPSILON);
    }
}

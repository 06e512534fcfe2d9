//! Pareto-front extraction over (time cost, quality loss) points.
//!
//! §4 of the paper reduces 133 generated models to 14 "model candidates"
//! by Pareto optimality: keep models that have the lowest time cost, the
//! lowest quality loss, or both (Figure 3). Both objectives are
//! minimised.


/// A point in the bi-objective (time, quality-loss) plane, carrying the
/// index of the model it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Identifier of the underlying item (e.g. model index).
    pub id: usize,
    /// First objective, minimised (e.g. execution time in seconds).
    pub time: f64,
    /// Second objective, minimised (e.g. quality loss).
    pub loss: f64,
}

impl ParetoPoint {
    /// `self` dominates `other` iff it is no worse in both objectives
    /// and strictly better in at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        (self.time <= other.time && self.loss <= other.loss)
            && (self.time < other.time || self.loss < other.loss)
    }
}

/// Returns the Pareto-optimal subset (non-dominated points), sorted by
/// ascending time.
///
/// Duplicate coordinates are kept once each (neither strictly dominates
/// the other). Runs in O(n log n): sort by time, then sweep keeping a
/// decreasing-loss frontier.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
    let mut pts: Vec<ParetoPoint> = points
        .iter()
        .copied()
        .filter(|p| p.time.is_finite() && p.loss.is_finite())
        .collect();
    // Sort by time, then loss so that among equal-time points the best
    // loss comes first and shadows the rest.
    pts.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.loss.total_cmp(&b.loss)));
    let mut front: Vec<ParetoPoint> = Vec::new();
    let mut best_loss = f64::INFINITY;
    let mut last_time = f64::NEG_INFINITY;
    for p in pts {
        if p.loss < best_loss {
            best_loss = p.loss;
            last_time = p.time;
            front.push(p);
        } else if p.loss == best_loss && p.time == last_time {
            // Exact duplicate of the frontier point: keep (non-dominated).
            front.push(p);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: usize, time: f64, loss: f64) -> ParetoPoint {
        ParetoPoint { id, time, loss }
    }

    #[test]
    fn dominance_relation() {
        assert!(p(0, 1.0, 1.0).dominates(&p(1, 2.0, 2.0)));
        assert!(p(0, 1.0, 2.0).dominates(&p(1, 1.0, 3.0)));
        assert!(!p(0, 1.0, 2.0).dominates(&p(1, 2.0, 1.0)));
        assert!(!p(0, 1.0, 1.0).dominates(&p(1, 1.0, 1.0)));
    }

    #[test]
    fn front_of_staircase() {
        let pts = vec![
            p(0, 1.0, 5.0),
            p(1, 2.0, 3.0),
            p(2, 3.0, 1.0),
            p(3, 2.5, 4.0), // dominated by id 1
            p(4, 4.0, 2.0), // dominated by id 2
        ];
        let front = pareto_front(&pts);
        let ids: Vec<usize> = front.iter().map(|q| q.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn no_front_member_is_dominated() {
        let pts: Vec<ParetoPoint> = (0..50)
            .map(|i| {
                let t = ((i * 13) % 50) as f64;
                let l = ((i * 29) % 50) as f64;
                p(i, t, l)
            })
            .collect();
        let front = pareto_front(&pts);
        for a in &front {
            for b in &pts {
                assert!(!(b.dominates(a)), "{b:?} dominates front member {a:?}");
            }
        }
    }

    #[test]
    fn every_non_member_is_dominated() {
        let pts: Vec<ParetoPoint> = (0..50)
            .map(|i| p(i, ((i * 13) % 50) as f64, ((i * 29) % 50) as f64))
            .collect();
        let front = pareto_front(&pts);
        for d in pts.iter().filter(|q| !front.iter().any(|f| f.id == q.id)) {
            assert!(
                front.iter().any(|f| f.dominates(d)),
                "{d:?} not dominated by any front member"
            );
        }
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let pts = vec![p(0, f64::NAN, 1.0), p(1, 1.0, f64::INFINITY), p(2, 1.0, 1.0)];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, 2);
    }
}

//! Branching-variable selection rules.

/// Which fractional variable to branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// Pick the variable whose fractional part is closest to 0.5.
    MostFractional,
    /// Pseudo-cost branching (product rule): each direction scores with the
    /// column's mean observed objective degradation per unit of change, and
    /// a direction the column has not been branched in yet with the mean
    /// over every column (Achterberg, Koch & Martin, "Branching rules
    /// revisited", 2005). Most-fractional only until the first observation.
    #[default]
    PseudoCost,
}

/// Running pseudo-cost statistics for one integer column.
#[derive(Debug, Clone, Copy, Default)]
struct PcEntry {
    down_sum: f64,
    down_cnt: u32,
    up_sum: f64,
    up_cnt: u32,
}

/// Pseudo-cost table of one branch & bound search.
#[derive(Debug)]
pub(crate) struct PseudoCosts {
    entries: Vec<PcEntry>,
    /// Sum and count of every per-unit degradation observed, downward
    /// (`[0]`) and upward (`[1]`).
    totals: [(f64, u32); 2],
}

impl PseudoCosts {
    pub fn new(ncols: usize) -> Self {
        Self { entries: vec![PcEntry::default(); ncols], totals: [(0.0, 0); 2] }
    }

    /// Mean observed per-unit pseudo-cost in one direction, or in the other
    /// while that one has no observation; `None` before any observation.
    fn mean(&self, up: bool) -> Option<f64> {
        let own = self.totals[usize::from(up)];
        let (sum, cnt) = if own.1 > 0 { own } else { self.totals[usize::from(!up)] };
        (cnt > 0).then(|| sum / f64::from(cnt))
    }

    /// Record an observed objective degradation `delta >= 0` from branching
    /// column `col` downward (`up = false`) or upward with fractionality `f`.
    pub fn record(&mut self, col: usize, up: bool, frac: f64, delta: f64) {
        let unit = if up { 1.0 - frac } else { frac };
        if unit <= 1e-9 {
            return;
        }
        let per_unit = (delta / unit).max(0.0);
        let ent = &mut self.entries[col];
        if up {
            ent.up_sum += per_unit;
            ent.up_cnt += 1;
        } else {
            ent.down_sum += per_unit;
            ent.down_cnt += 1;
        }
        let total = &mut self.totals[usize::from(up)];
        total.0 += per_unit;
        total.1 += 1;
    }

    /// Product-rule score. A direction the column has not been branched in
    /// yet scores with [`PseudoCosts::mean`]; `None` before any
    /// observation at all.
    pub fn score(&self, col: usize, frac: f64) -> Option<f64> {
        let ent = self.entries[col];
        let per_unit = |sum: f64, cnt: u32, up: bool| {
            if cnt > 0 {
                Some(sum / f64::from(cnt))
            } else {
                self.mean(up)
            }
        };
        let up = per_unit(ent.up_sum, ent.up_cnt, true)?;
        let down = per_unit(ent.down_sum, ent.down_cnt, false)?;
        let eps = 1e-6;
        Some((up * (1.0 - frac)).max(eps) * (down * frac).max(eps))
    }
}

/// Choose the branching column among `fractional = [(col, value)]`. Under
/// [`Branching::PseudoCost`] every column scores once anything has been
/// observed (ties keep the first), and before that the rule is
/// most-fractional.
pub(crate) fn select(
    rule: Branching,
    pc: &PseudoCosts,
    fractional: &[(usize, f64)],
) -> (usize, f64) {
    debug_assert!(!fractional.is_empty());
    match rule {
        Branching::MostFractional => most_fractional(fractional),
        Branching::PseudoCost => {
            let mut best: Option<(usize, f64, f64)> = None;
            for &(col, v) in fractional {
                let f = v - v.floor();
                if let Some(s) = pc.score(col, f) {
                    match best {
                        Some((_, _, bs)) if bs >= s => {}
                        _ => best = Some((col, v, s)),
                    }
                }
            }
            match best {
                Some((col, v, _)) => (col, v),
                None => most_fractional(fractional),
            }
        }
    }
}

fn most_fractional(fractional: &[(usize, f64)]) -> (usize, f64) {
    let mut best = fractional[0];
    let mut best_d = 1.0;
    for &(col, v) in fractional {
        let f = v - v.floor();
        let d = (f - 0.5).abs();
        if d < best_d {
            best_d = d;
            best = (col, v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_fractional_prefers_half() {
        let fr = vec![(0, 1.1), (1, 2.5), (2, 3.9)];
        let (col, v) = select(Branching::MostFractional, &PseudoCosts::new(3), &fr);
        assert_eq!(col, 1);
        assert_eq!(v, 2.5);
    }

    #[test]
    fn pseudo_cost_falls_back_without_history() {
        let pc = PseudoCosts::new(2);
        let fr = vec![(0, 1.2), (1, 0.5)];
        let (col, _) = select(Branching::PseudoCost, &pc, &fr);
        assert_eq!(col, 1, "no history → most-fractional fallback");
    }

    #[test]
    fn column_without_history_scores_with_the_mean() {
        let mut pc = PseudoCosts::new(3);
        // column 0: 2 per unit both ways; columns 1 and 2 never branched
        pc.record(0, true, 0.5, 1.0);
        pc.record(0, false, 0.5, 1.0);
        let unseen = pc.score(1, 0.5).expect("scored with the mean, not skipped");
        assert!((unseen - 1.0).abs() < 1e-12, "(2·0.5)·(2·0.5), got {unseen}");
        // column 0 at 0.1 scores (2·0.9)·(2·0.1) = 0.36 < 1.0: the unseen,
        // more fractional column wins, where it used to be skipped
        let fr = vec![(0, 1.1), (1, 2.5)];
        assert_eq!(select(Branching::PseudoCost, &pc, &fr).0, 1);

        // a direction nobody has observed takes the other direction's mean
        let mut up_only = PseudoCosts::new(2);
        up_only.record(0, true, 0.75, 1.0); // 4 per unit
        let s = up_only.score(1, 0.5).expect("scored");
        assert!((s - 4.0).abs() < 1e-12, "(4·0.5)·(4·0.5), got {s}");
    }

    #[test]
    fn pseudo_cost_uses_history() {
        let mut pc = PseudoCosts::new(2);
        // column 0: large degradations both ways; column 1: tiny.
        pc.record(0, true, 0.5, 10.0);
        pc.record(0, false, 0.5, 10.0);
        pc.record(1, true, 0.5, 0.01);
        pc.record(1, false, 0.5, 0.01);
        let fr = vec![(0, 1.5), (1, 2.5)];
        let (col, _) = select(Branching::PseudoCost, &pc, &fr);
        assert_eq!(col, 0, "higher pseudo-cost product wins");
    }

    #[test]
    fn record_ignores_degenerate_fraction() {
        let mut pc = PseudoCosts::new(1);
        pc.record(0, false, 0.0, 5.0); // frac 0 → unit 0 → ignored
        assert!(pc.score(0, 0.5).is_none());
    }
}

//! Branching-variable selection rules.

/// Which fractional variable to branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// Pick the variable whose fractional part is closest to 0.5.
    MostFractional,
    /// Pseudo-cost branching with most-fractional fallback until both
    /// directions of a variable have been observed at least once.
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
}

impl PseudoCosts {
    pub fn new(ncols: usize) -> Self {
        Self { entries: vec![PcEntry::default(); ncols] }
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
    }

    /// Product-rule score; `None` when the column has no history yet.
    pub fn score(&self, col: usize, frac: f64) -> Option<f64> {
        let ent = self.entries[col];
        if ent.up_cnt == 0 || ent.down_cnt == 0 {
            return None;
        }
        let up = ent.up_sum / ent.up_cnt as f64;
        let down = ent.down_sum / ent.down_cnt as f64;
        let eps = 1e-6;
        Some((up * (1.0 - frac)).max(eps) * (down * frac).max(eps))
    }
}

/// Choose the branching column among `fractional = [(col, value)]`.
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

//! Order statistics and the layer-sum reconciliation rule, kept free of
//! any simulator type so the unit tests can feed them synthetic timings.

/// Requests (or cells) that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); `0.0` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it: the sample with exactly ten larger ones. Returns the value
/// and its percentile, `100 * (n - 10) / n`; `None` below eleven samples,
/// where no percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((v[n - TAIL_BEYOND - 1], pct))
}

/// One layer-sum check: the spans timed around consecutive calls into
/// the layers must cover the enclosing wall clock, up to a tolerance of
/// `rel` of the wall or `abs_s` seconds, whichever is larger.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconcile {
    /// What was reconciled, for the report line.
    pub what: String,
    /// The enclosing wall clock, seconds.
    pub wall_s: f64,
    /// The sum of the layer spans, seconds.
    pub parts_s: f64,
    /// Relative tolerance.
    pub rel: f64,
    /// Absolute tolerance, seconds.
    pub abs_s: f64,
}

impl Reconcile {
    /// Absolute residual `|wall - parts|`, seconds.
    pub fn residual_s(&self) -> f64 {
        (self.wall_s - self.parts_s).abs()
    }

    /// Whether the residual is within tolerance.
    pub fn holds(&self) -> bool {
        self.residual_s() <= (self.rel * self.wall_s).max(self.abs_s)
    }

    /// The report line for this check.
    pub fn line(&self) -> String {
        format!(
            "reconcile {}: wall {:.6}s parts {:.6}s residual {:.6}s tolerance max({:.1}%, {:.3}s) {}",
            self.what,
            self.wall_s,
            self.parts_s,
            self.residual_s(),
            self.rel * 100.0,
            self.abs_s,
            if self.holds() { "ok" } else { "FAILED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (v, pct) = tail(&xs).expect("eleven samples have a tail");
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond() {
        // 100 shuffled samples 0..100: the tail is the 90th smallest (89),
        // the 90th percentile, with 90..100 (ten samples) beyond it.
        let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
        xs.reverse();
        xs.swap(3, 71);
        let (v, pct) = tail(&xs).expect("tail exists");
        assert_eq!(v, 89.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_sits_inside_the_slow_population() {
        // 70 fast requests and 30 slow ones: the median is fast and the
        // tail is slow, with twenty slow samples on either side of it.
        let mut xs = vec![1.0; 70];
        xs.extend((0..30).map(|i| 100.0 + f64::from(i)));
        assert_eq!(median(&xs), 1.0);
        let (v, _) = tail(&xs).expect("tail exists");
        assert_eq!(v, 119.0);
    }

    #[test]
    fn reconcile_accepts_within_tolerance() {
        // Spans of 0.40 + 0.55 s inside a 1.00 s wall leave 0.05 s
        // unaccounted: inside a 10 % tolerance, outside a 2 % one.
        let parts = [0.40, 0.55].iter().sum();
        let loose = Reconcile {
            what: "synthetic".into(),
            wall_s: 1.0,
            parts_s: parts,
            rel: 0.10,
            abs_s: 0.001,
        };
        assert!(loose.holds());
        assert!(loose.line().ends_with("ok"));
        let tight = Reconcile { rel: 0.02, ..loose };
        assert!(!tight.holds());
        assert!(tight.line().ends_with("FAILED"));
    }

    #[test]
    fn reconcile_absolute_floor_covers_tiny_walls() {
        // A 0.2 ms cell with 0.1 ms unaccounted passes on the 1 ms floor.
        let r = Reconcile {
            what: "tiny".into(),
            wall_s: 0.0002,
            parts_s: 0.0001,
            rel: 0.02,
            abs_s: 0.001,
        };
        assert!(r.holds());
    }

    #[test]
    fn reconcile_rejects_parts_exceeding_wall() {
        // Parts larger than the wall (double-counted spans) fail too.
        let r = Reconcile {
            what: "overlap".into(),
            wall_s: 1.0,
            parts_s: 1.3,
            rel: 0.05,
            abs_s: 0.001,
        };
        assert!(!r.holds());
    }
}

//! Carbon-intensity forecasting (§3.1, §3.3).
//!
//! The paper: *"carbon intensity prediction can support the job scheduler"*
//! and carbon-aware backfilling needs *"forecasting techniques that
//! leverage historical carbon intensity data"*. This module provides the
//! standard lightweight forecasters used in the carbon-aware-computing
//! literature: persistence, seasonal-naïve (24 h), and additive
//! Holt-Winters with a daily season.

/// A forecaster fitted on an hourly history that can predict the next
/// `horizon` hourly values.
pub trait Forecaster {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Fits internal state on an hourly history.
    fn fit(&mut self, history: &[f64]);

    /// Predicts `horizon` future hourly values. Must be called after
    /// [`Forecaster::fit`].
    fn predict(&self, horizon: usize) -> Vec<f64>;
}

/// Repeats the last observed value.
#[derive(Debug, Default, Clone)]
pub struct Persistence {
    last: f64,
}

impl Forecaster for Persistence {
    fn name(&self) -> &'static str {
        "persistence"
    }
    fn fit(&mut self, history: &[f64]) {
        match history.last() {
            Some(&v) => self.last = v,
            None => panic!("empty history"),
        }
    }
    fn predict(&self, horizon: usize) -> Vec<f64> {
        vec![self.last; horizon]
    }
}

/// Repeats the last full seasonal cycle (default 24 h).
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    last_cycle: Vec<f64>,
}

impl SeasonalNaive {
    /// Creates a seasonal-naïve forecaster with the given period in hours.
    pub fn new(period: usize) -> Self {
        assert!(period > 0);
        SeasonalNaive {
            period,
            last_cycle: Vec::new(),
        }
    }

    /// Daily seasonality (24 h).
    pub fn daily() -> Self {
        Self::new(24)
    }
}

impl Forecaster for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
    fn fit(&mut self, history: &[f64]) {
        assert!(
            history.len() >= self.period,
            "history shorter than one period"
        );
        self.last_cycle = history[history.len() - self.period..].to_vec();
    }
    fn predict(&self, horizon: usize) -> Vec<f64> {
        (0..horizon)
            .map(|h| self.last_cycle[h % self.period])
            .collect()
    }
}

/// Additive Holt-Winters (level + trend + daily season).
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    level: f64,
    trend: f64,
    season: Vec<f64>,
}

impl HoltWinters {
    /// Creates an additive Holt-Winters forecaster with the given smoothing
    /// parameters and season length (hours).
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Self {
        assert!(period > 1, "period must exceed 1");
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            assert!((0.0..=1.0).contains(&v), "{name} out of [0,1]");
        }
        HoltWinters {
            alpha,
            beta,
            gamma,
            period,
            level: 0.0,
            trend: 0.0,
            season: Vec::new(),
        }
    }

    /// Sensible defaults for hourly carbon-intensity data with daily season.
    pub fn daily_default() -> Self {
        Self::new(0.25, 0.02, 0.25, 24)
    }
}

impl Forecaster for HoltWinters {
    fn name(&self) -> &'static str {
        "holt-winters"
    }

    fn fit(&mut self, history: &[f64]) {
        let m = self.period;
        assert!(
            history.len() >= 2 * m,
            "holt-winters needs at least two seasons of history"
        );
        // Initialize: level = mean of first season; trend = average change
        // between the first two seasons; season = first-season deviations.
        let first_mean = history[..m].iter().sum::<f64>() / m as f64;
        let second_mean = history[m..2 * m].iter().sum::<f64>() / m as f64;
        self.level = first_mean;
        self.trend = (second_mean - first_mean) / m as f64;
        self.season = history[..m].iter().map(|&x| x - first_mean).collect();

        for (i, &x) in history.iter().enumerate().skip(m) {
            let s_idx = i % m;
            let last_level = self.level;
            let seasonal = self.season[s_idx];
            self.level =
                self.alpha * (x - seasonal) + (1.0 - self.alpha) * (self.level + self.trend);
            self.trend = self.beta * (self.level - last_level) + (1.0 - self.beta) * self.trend;
            self.season[s_idx] = self.gamma * (x - self.level) + (1.0 - self.gamma) * seasonal;
        }
    }

    fn predict(&self, horizon: usize) -> Vec<f64> {
        (1..=horizon)
            .map(|h| {
                let s = self.season[(h - 1) % self.period];
                self.level + self.trend * h as f64 + s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_sim_core::series::TimeSeries;
    use sustain_sim_core::time::{SimDuration, SimTime};

    /// Result of scoring a forecaster against a held-out window.
    struct ForecastScore {
        /// Mean absolute percentage error over the window, percent.
        mape: f64,
        /// Root-mean-square error, gCO₂/kWh.
        rmse: f64,
    }

    /// Mean absolute percentage error between forecasts and actuals, in
    /// percent. Pairs with `actual == 0` are skipped.
    fn mape(actual: &[f64], forecast: &[f64]) -> f64 {
        assert_eq!(actual.len(), forecast.len());
        let mut total = 0.0;
        let mut n = 0u32;
        for (&a, &f) in actual.iter().zip(forecast) {
            if a != 0.0 {
                total += ((a - f) / a).abs();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            100.0 * total / n as f64
        }
    }

    /// Root-mean-square error between two equal-length series.
    fn rmse(actual: &[f64], forecast: &[f64]) -> f64 {
        assert_eq!(actual.len(), forecast.len());
        if actual.is_empty() {
            return 0.0;
        }
        let se: f64 = actual
            .iter()
            .zip(forecast)
            .map(|(a, f)| (a - f) * (a - f))
            .sum();
        (se / actual.len() as f64).sqrt()
    }

    /// Fits `forecaster` on `series[..split]` and scores it on
    /// `series[split..split+horizon]`.
    fn backtest(
        forecaster: &mut dyn Forecaster,
        series: &TimeSeries,
        split: usize,
        horizon: usize,
    ) -> ForecastScore {
        let values = series.values();
        assert!(
            split + horizon <= values.len(),
            "backtest window out of range"
        );
        forecaster.fit(&values[..split]);
        let pred = forecaster.predict(horizon);
        let actual = &values[split..split + horizon];
        ForecastScore {
            mape: mape(actual, &pred),
            rmse: rmse(actual, &pred),
        }
    }

    /// An hourly series sampled from `f` at each hour's start.
    fn hourly(hours: usize, f: impl Fn(SimTime) -> f64) -> TimeSeries {
        let step = SimDuration::from_hours(1.0);
        let values = (0..hours)
            .map(|i| f(SimTime::ZERO + step * i as f64))
            .collect();
        TimeSeries::new(SimTime::ZERO, step, values)
    }

    fn sine_series(hours: usize) -> TimeSeries {
        hourly(hours, |t| {
            300.0 + 50.0 * (t.hour_of_day() / 24.0 * std::f64::consts::TAU).sin()
        })
    }

    #[test]
    fn error_metrics() {
        let a = [10.0, 20.0, 30.0];
        let f = [11.0, 18.0, 33.0];
        assert!((rmse(&a, &f) - (14.0f64 / 3.0).sqrt()).abs() < 1e-9);
        let expected_mape = 100.0 * (0.1 + 0.1 + 0.1) / 3.0;
        assert!((mape(&a, &f) - expected_mape).abs() < 1e-9);
        assert_eq!(mape(&[0.0], &[5.0]), 0.0);
    }

    #[test]
    fn persistence_repeats_last() {
        let mut f = Persistence::default();
        f.fit(&[1.0, 2.0, 3.0]);
        assert_eq!(f.predict(3), vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn seasonal_naive_repeats_cycle() {
        let mut f = SeasonalNaive::new(3);
        f.fit(&[9.0, 9.0, 9.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.predict(5), vec![1.0, 2.0, 3.0, 1.0, 2.0]);
    }

    #[test]
    fn seasonal_naive_perfect_on_periodic_signal() {
        let s = sine_series(96);
        let mut f = SeasonalNaive::daily();
        let score = backtest(&mut f, &s, 72, 24);
        assert!(score.rmse < 1e-9, "rmse {}", score.rmse);
    }

    #[test]
    fn holt_winters_tracks_trend_and_season() {
        // Linear trend + daily season.
        let s = hourly(24 * 10, |t| {
            200.0
                + 0.5 * t.as_hours()
                + 30.0 * (t.hour_of_day() / 24.0 * std::f64::consts::TAU).sin()
        });
        let mut f = HoltWinters::daily_default();
        let score = backtest(&mut f, &s, 24 * 9, 24);
        assert!(score.mape < 3.0, "mape {}", score.mape);
    }

    #[test]
    fn holt_winters_beats_persistence_on_seasonal_data() {
        let s = sine_series(24 * 10);
        let mut hw = HoltWinters::daily_default();
        let mut p = Persistence::default();
        let hw_score = backtest(&mut hw, &s, 24 * 9, 24);
        let p_score = backtest(&mut p, &s, 24 * 9, 24);
        assert!(
            hw_score.rmse < p_score.rmse,
            "hw {} vs persistence {}",
            hw_score.rmse,
            p_score.rmse
        );
    }

    #[test]
    #[should_panic(expected = "two seasons")]
    fn holt_winters_needs_history() {
        HoltWinters::daily_default().fit(&[1.0; 30]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn backtest_bounds_checked() {
        let s = sine_series(48);
        backtest(&mut Persistence::default(), &s, 40, 20);
    }
}

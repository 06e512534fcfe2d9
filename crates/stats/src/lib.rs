//! Statistics utilities for the Smart-fluidnet reproduction.
//!
//! This crate collects the statistical machinery the paper leans on:
//!
//! * [`correlation`] — Pearson's r (Eq. 10) and Spearman's rank
//!   correlation (Eq. 11), used in §6.1 to justify `CumDivNorm` as a
//!   runtime proxy for the final simulation quality loss.
//! * [`regression`] — ordinary least-squares linear regression, used by
//!   the runtime to extrapolate `CumDivNorm` to the final time step.
//! * [`histogram`] — fixed-width histograms (Figure 1).
//! * [`boxplot`] — five-number summaries with Tukey outliers
//!   (Figures 9 and 11).
//! * [`pareto`] — Pareto-front extraction over (time, quality-loss)
//!   points (§4, Figure 3).
//! * [`summary`] — scalar descriptive statistics.
//! * [`table`] — plain-text table rendering for the bench harness.

#![warn(missing_docs)]

pub mod boxplot;
pub mod correlation;
pub mod histogram;
pub mod pareto;
pub mod regression;
pub mod summary;
pub mod table;

pub use boxplot::BoxplotSummary;
pub use correlation::{pearson, spearman};
pub use histogram::Histogram;
pub use pareto::{pareto_front, ParetoPoint};
pub use regression::LinearRegression;
pub use summary::Summary;
pub use table::TextTable;

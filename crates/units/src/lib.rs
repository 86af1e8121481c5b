#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-units
//!
//! Foundation types for the microgrid-opt workspace: strongly typed physical
//! quantities ([`Power`], [`Energy`], [`Emissions`], [`CarbonIntensity`]), a
//! fixed 365-day simulation calendar ([`SimTime`], [`CalendarTime`]), a
//! fixed-step [`TimeSeries`] container with resampling, small descriptive
//! statistics helpers, and [`LruMemo`], the bounded least-recently-used
//! memo behind the process-wide seed-independent tables (solar geometry
//! in `mgopt-weather`, carbon-intensity shapes in `mgopt-gridcarbon`).
//!
//! ## Conventions
//!
//! * Power is stored in **kilowatts**, energy in **kilowatt-hours**,
//!   emissions in **kilograms of CO2**, and carbon intensity in
//!   **grams of CO2 per kilowatt-hour** (the unit used by Electricity Maps
//!   and by the paper).
//! * Simulation time is measured in whole seconds since the start of a
//!   365-day, no-leap year (8,760 hours). This mirrors how NREL's System
//!   Advisor Model treats typical-meteorological-year data.
//! * Sign convention for power flows follows Vessim: producers are
//!   positive, consumers negative.

pub mod approx;
pub mod memo;
pub mod quantity;
pub mod series;
pub mod stats;
pub mod time;

pub use approx::{rel_close, rel_error};
pub use memo::LruMemo;
pub use quantity::{CarbonIntensity, Emissions, Energy, Power};
pub use series::TimeSeries;
pub use time::{
    CalendarTime, SimDuration, SimTime, HOURS_PER_YEAR, SECONDS_PER_DAY, SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
};

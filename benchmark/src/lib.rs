//! askbench: the frozen measuring stick for the ASK stack. See README.md.

pub mod alloc;
pub mod calibrate;
pub mod cli;
pub mod compare;
pub mod contract;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;

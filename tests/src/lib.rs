//! Shared code for the integration tests: reference oracles that stay
//! out of the production crates.

pub mod dense_cuckoo;

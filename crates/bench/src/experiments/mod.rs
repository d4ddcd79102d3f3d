//! One module per reproduced paper artifact. See DESIGN.md §3 for the
//! experiment ↔ artifact map.

mod e1;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod p1;
mod t1;

pub use e1::e1_search_scaling;
pub use e2::e2_chain_walk;
pub use e3::e3_comm_overhead;
pub use e4::e4_update_cost;
pub use e5::e5_search_protocol;
pub use e6::e6_exhaustion;
pub use e7::e7_leakage;
pub use e8::e8_simulator;
pub use p1::p1_primitives;
pub use t1::t1_summary;

use crate::table::Table;
use crate::Scale;

/// Run every experiment at the given scale.
#[must_use]
pub fn run_all(scale: Scale) -> Vec<Table> {
    vec![
        e1_search_scaling(scale),
        e2_chain_walk(scale),
        e3_comm_overhead(scale),
        e4_update_cost(scale),
        e5_search_protocol(scale),
        e6_exhaustion(scale),
        e7_leakage(scale),
        e8_simulator(scale),
        t1_summary(scale),
        p1_primitives(scale),
    ]
}

/// Look up an experiment runner by id (`e1`..`e8`, `t1`, `p1`).
#[must_use]
pub fn by_id(id: &str) -> Option<fn(Scale) -> Table> {
    Some(match id.to_ascii_lowercase().as_str() {
        "e1" => e1_search_scaling,
        "e2" => e2_chain_walk,
        "e3" => e3_comm_overhead,
        "e4" => e4_update_cost,
        "e5" => e5_search_protocol,
        "e6" => e6_exhaustion,
        "e7" => e7_leakage,
        "e8" => e8_simulator,
        "t1" => t1_summary,
        "p1" => p1_primitives,
        _ => return None,
    })
}

//! # retime — Leiserson–Saxe retiming machinery
//!
//! Substrate crate of the **minobswin** suite (a reproduction of
//! Lu & Zhou, *Retiming for Soft Error Minimization Under Error-Latching
//! Window Constraints*, DATE 2013). It provides:
//!
//! * [`RetimeGraph`]/[`Retiming`]: the retiming graph `G = (V, E)` with
//!   host vertex, gate delays `d(v)` and register weights `w(e)`,
//! * [`timing`]: zero-weight-subgraph timing analysis (arrival times,
//!   clock period),
//! * [`labels`]: the paper's `L`/`R` error-latching-window bound labels
//!   (eq. 6) with critical witnesses and P1/P2 violation finding,
//! * [`minperiod`]: FEAS-based min-period retiming with `O(|E|)` memory
//!   (ingredient `\[24\]` of the paper's initialization),
//! * [`setup_hold`]: retiming under setup and hold constraints
//!   (ingredient `\[23\]`),
//! * [`flow`]/[`minarea_ref`]: an **exact** `W`/`D`-matrix +
//!   min-cost-flow reference solver for cost-minimal retiming — the
//!   ground truth against which the paper's forest-based algorithm is
//!   validated,
//! * [`apply`]: rebuilding a netlist with the retimed register
//!   placement (fanout-sharing register chains).
//!
//! # Examples
//!
//! ```
//! use netlist::{samples, DelayModel};
//! use retime::{minperiod, RetimeGraph, Retiming};
//! # fn main() -> Result<(), retime::RetimeError> {
//! let circuit = samples::pipeline(9, 3);
//! let graph = RetimeGraph::from_circuit(&circuit, &DelayModel::unit())?;
//! let result = minperiod::min_period(&graph)?;
//! assert_eq!(result.phi, 3);
//! let retimed = retime::apply::apply_retiming(&circuit, &graph, &result.retiming)?;
//! assert!(retimed.num_registers() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apply;
mod error;
pub mod flow;
mod graph;
pub mod labels;
pub mod minarea_ref;
pub mod minperiod;
pub mod setup_hold;
pub mod timing;

pub use error::RetimeError;
pub use graph::{Edge, EdgeId, RetimeGraph, Retiming, VertexId};
pub use labels::{ElwParams, LrLabels, P1Violation, P2Violation};

//! # nws-routing — IS-IS-like shortest-path routing substrate
//!
//! The monitor-placement formulation consumes a *routing matrix* `R` whose
//! entry `r_{k,i}` says which fraction of OD pair `k`'s traffic traverses
//! link `i` (binary when shortest paths are unique, fractional under ECMP).
//! This crate computes it from an [`nws_topo::Topology`] the same way an
//! IS-IS/OSPF control plane would:
//!
//! * [`Spf`] — single-source shortest-path-first (Dijkstra) over IGP weights,
//!   retaining the full equal-cost DAG;
//! * [`Router`] — per-source SPF cache with path extraction and ECMP traffic
//!   splitting;
//! * [`RoutingMatrix`] — the matrix in compressed sparse rows (each OD
//!   keeps only the links it crosses, so building and sweeping it costs
//!   O(nnz), not O(|F|·|E|)) plus link-load accumulation;
//! * [`failure`] — link-failure what-if: clone a topology without some links
//!   and recompute, modelling the re-routing events that motivate dynamic
//!   monitor placement (paper §I).
//!
//! ```
//! use nws_topo::geant;
//! use nws_routing::{OdPair, Router};
//!
//! let topo = geant();
//! let router = Router::new(&topo);
//! let uk = topo.require_node("UK").unwrap();
//! let sk = topo.require_node("SK").unwrap();
//! let path = router.path(OdPair { src: uk, dst: sk }).unwrap();
//! let labels: Vec<String> = path.links().iter().map(|&l| topo.link_label(l)).collect();
//! assert_eq!(labels, ["UK-NL", "NL-DE", "DE-CZ", "CZ-SK"]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod failure;
mod matrix;
mod path;
mod router;
mod spf;

pub use matrix::RoutingMatrix;
pub use path::{OdPair, Path};
pub use router::Router;
pub use spf::Spf;

//! # uap-coords — network coordinate systems
//!
//! Latency *prediction* is the collection technique the paper recommends
//! over explicit measurement (§3.2): "it is only required that each node in
//! the system measures latencies to just a small set of other nodes". This
//! crate implements the two predictor families the paper covers:
//!
//! * [`vivaldi`] — the decentralized spring-relaxation coordinate system of
//!   Dabek et al. (the paper's "most prominent" prediction method \[7\]);
//! * [`ics`] — the landmark/beacon Internet Coordinate System of Lim et al.
//!   \[20\] that the paper reprints as its Figure 4: PCA over the beacon
//!   distance matrix, a scaled transformation matrix, and host embedding by
//!   a single matrix–vector product. The worked Examples 4 and 5 of that
//!   excerpt are regression tests with their exact published numbers.
//! * [`embedding`] — accuracy metrics (relative error, stress) shared by
//!   the evaluation harnesses.
//!
//! The linear algebra ([`matrix`]) is self-contained: a dense matrix type
//! and a cyclic Jacobi symmetric eigendecomposition, which is all PCA on
//! beacon sets needs.

#![forbid(unsafe_code)]

pub mod embedding;
pub mod ics;
pub mod matrix;
pub mod vivaldi;

pub use embedding::{relative_error, stress, EmbeddingQuality};
pub use ics::IcsSystem;
pub use matrix::Matrix;
pub use vivaldi::VivaldiNode;

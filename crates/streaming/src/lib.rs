//! Network-coded media streaming — the deployment scenario of the paper's
//! Secs. 5.1.1 and 6.
//!
//! The paper argues that a single GPU encoding at 294 MB/s turns network
//! coding into a practical streaming-server technology: coded blocks are
//! generated per downstream request, and the bottleneck moves to the
//! network interfaces. This crate holds the two halves of that argument:
//!
//! * [`media`] — stream profiles and segment timing (the 512 KB / 768 kbps
//!   / 5.33 s buffering arithmetic).
//! * [`nic`] — network-interface capacity modeling (gigabit Ethernet).
//! * [`capacity`] — the peer-capacity planner that reproduces the paper's
//!   1385 / 1844 / 3000-peer claims from an encoding rate.
//! * [`transport`] — real-socket delivery: the sender tuning that paces a
//!   [`nc_net::ShardedServer`] at a profile's coded rate, and the
//!   per-transfer goodput assessment against the stream bitrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod media;
pub mod nic;
pub mod transport;

pub use capacity::CapacityPlan;
pub use media::StreamProfile;
pub use nic::Nic;
pub use transport::{assess, sender_config_for, DeliveryAssessment};

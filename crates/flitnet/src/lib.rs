//! Wormhole-network substrate types shared by the MediaWorm and PCS
//! simulators.
//!
//! The MediaWorm paper studies a flit-level wormhole router; this crate
//! provides the vocabulary that every router model needs:
//!
//! * [`ids`] — strongly-typed identifiers ([`NodeId`], [`PortId`], [`VcId`],
//!   [`StreamId`], [`MsgId`]).
//! * [`TrafficClass`] — the paper's three ATM-style classes (CBR, VBR,
//!   best-effort).
//! * [`Flit`] — the unit of flow control; a head flit carries routing and
//!   bandwidth (`Vtick`) information, middle/tail flits follow the worm;
//!   a [`Worm`] is a whole message held as its head flit.
//! * [`VcBuffer`] — the bounded FIFO behind every fixed-capacity queue:
//!   router input and staging buffers, links and credit paths.
//! * [`Link`] — a one-flit-per-cycle pipelined physical channel, plus the
//!   matching [`CreditLink`] for upstream credit returns.
//! * [`VcPartition`] — the paper's static x:y split of the virtual channels
//!   between real-time and best-effort traffic (§4.2.3).

#![warn(missing_docs)]

pub mod class;
pub mod flit;
pub mod ids;
pub mod link;
pub mod partition;
pub mod vcbuf;

pub use class::TrafficClass;
pub use flit::{worm_order_violation, Flit, FlitKind, Worm, BEST_EFFORT_VTICK};
pub use ids::{FrameId, MsgId, NodeId, PortId, RouterId, StreamId, VcId};
pub use link::{CreditLink, Link};
pub use partition::{VcPartition, VcSel};
pub use vcbuf::VcBuffer;

//! `capsim-dcm` — the Data Center Manager substrate.
//!
//! §II-A of the paper: "Intel Data Center Manager (DCM), which runs on a
//! management server, manages the power consumption of the nodes of a data
//! center … DCM power capping services focus on controlling resource usage
//! to safeguard against over utilization of constrained capacity."
//!
//! The manager here does exactly that: over a caller-owned link to each
//! node's BMC (a [`capsim_ipmi::Transact`], such as a
//! [`capsim_ipmi::ManagerPort`]) it polls DCMI power readings and divides
//! a **group power budget** across nodes through the group half of a
//! [`capsim_policy::CapPolicy`] (by default the ladder backend's uniform
//! split), pushing the resulting per-node caps with DCMI *Set Power
//! Limit* + *Activate*. The paper's single-node study is the degenerate
//! one-node group; the `datacenter` example exercises the full fan-out.

pub mod error;
pub mod fleet;
pub mod manager;
pub mod monitor;
pub mod train;

pub use error::DcmError;
pub use fleet::{
    BreakerState, EnergySummary, EpochRecord, Fleet, FleetBuilder, FleetReport, NodeSummary,
    PriorityTraffic, PumpedLink, TrafficSummary,
};
pub use manager::{CapPushOutcome, Dcm, NodeHealth, NodeId};
pub use monitor::{read_sel, violation_count, FleetMonitor, PowerHistory};
pub use train::{train_rl, EpisodeScore, RlTrainConfig, RlTrainReport};

//! Host-side components: daemon, packetizer, sliding windows.

pub mod congestion;
pub mod daemon;
pub mod packetizer;
pub mod receiver;
pub mod table;
pub mod trace;
pub mod window;

pub use congestion::CongestionWindow;
pub use trace::{TraceEvent, TraceLog};

pub use daemon::{AskDaemon, ChannelSnapshot, TaskResult, CHANNEL_STRIDE};
pub use packetizer::{BuiltFrame, PacketizedStream, Packetizer, PendingStream};
pub use receiver::ReceiverWindow;
pub use table::TaskTable;
pub use window::{FrameKind, InFlight, SenderWindow};

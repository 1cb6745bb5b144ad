//! Host-side components: daemon, packetizer, sliding windows.

pub mod daemon;
mod merge;
pub mod packetizer;
pub mod receiver;
pub mod table;
pub mod window;

pub use daemon::{AskDaemon, ChannelSnapshot, TaskResult, CHANNEL_STRIDE};
pub use packetizer::{BuiltFrame, PacketizedStream, Packetizer, PendingStream};
pub use receiver::ReceiverWindow;
pub use table::TaskTable;
pub use window::{FrameKind, InFlight, SenderWindow};

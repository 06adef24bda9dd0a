//! The file server: the journaling file system running as a dedicated
//! user process (paper §4.3), serving requests over the kernel's
//! synchronous IPC with page transfer.
//!
//! Protocol: the client writes a request into one of its frames,
//! `sys_send`s it to the server, and blocks in `sys_recv`. The server —
//! parked in `sys_recv` — wakes, executes the operation against the
//! file system, and `sys_reply_wait`s the response back, donating the
//! CPU to the client and re-arming itself for the next request.
//!
//! Request page layout (words):
//! `[op, a, b, path_len, path bytes..., data_len, data...]`.
//! The response status travels in the IPC value register; response data
//! in the transferred page.

use hk_abi::{Sysno, EAGAIN};
use hk_kernel::{GuestEnv, GuestProg, Poll};

use super::disk::RamDisk;
use super::{FileSys, FsError, T_DIR, T_FILE};
use crate::ulib::{PageBudget, UserVm};

/// Request opcodes.
pub mod op {
    /// Create a file: path -> \[inum\].
    pub const CREATE: i64 = 1;
    /// Create a directory: path -> \[inum\].
    pub const MKDIR: i64 = 2;
    /// Read: a=off, b=len, path -> data.
    pub const READ: i64 = 3;
    /// Write: a=off, path + data -> [].
    pub const WRITE: i64 = 4;
    /// Stat: path -> [inum, ty, size].
    pub const STAT: i64 = 5;
    /// Unlink: path -> [].
    pub const UNLINK: i64 = 6;
    /// Readdir: path -> [inum, len, bytes...] records.
    pub const READDIR: i64 = 7;
}

/// Encodes an [`FsError`] as a negative IPC status.
pub fn encode_err(e: &FsError) -> i64 {
    -100 - match e {
        FsError::NotFound => 0,
        FsError::Exists => 1,
        FsError::NoSpace => 2,
        FsError::NotDir => 3,
        FsError::IsDir => 4,
        FsError::NotEmpty => 5,
        FsError::BadName => 6,
        FsError::TooBig => 7,
        FsError::BadSuperblock => 8,
    }
}

/// Builds a request word vector.
pub fn build_request(op: i64, a: i64, b: i64, path: &str, data: &[i64]) -> Vec<i64> {
    let mut w = vec![op, a, b, path.len() as i64];
    w.extend(path.bytes().map(|c| c as i64));
    w.push(data.len() as i64);
    w.extend_from_slice(data);
    w
}

#[derive(Debug)]
struct Request {
    op: i64,
    a: i64,
    b: i64,
    path: String,
    data: Vec<i64>,
}

enum ServerState {
    Setup,
    Arming,
    Waiting,
    Replying { client: i64, status: i64, len: i64 },
}

/// The file server actor.
pub struct FsServer {
    fs: FileSys<RamDisk>,
    budget: PageBudget,
    vm: Option<UserVm>,
    frame: i64,
    state: ServerState,
    /// Requests served (for tests and statistics).
    pub served: u64,
}

impl FsServer {
    /// A server around a freshly formatted RAM disk.
    pub fn new(budget: PageBudget) -> FsServer {
        let fs = FileSys::mkfs(RamDisk::new(64, 1024), 64, 16).expect("mkfs");
        Self::with_fs(fs, budget)
    }

    /// A server over an existing (possibly pre-populated) file system.
    pub fn with_fs(fs: FileSys<RamDisk>, budget: PageBudget) -> FsServer {
        FsServer {
            fs,
            budget,
            vm: None,
            frame: -1,
            state: ServerState::Setup,
            served: 0,
        }
    }

    /// Direct access to the underlying file system (tests, mkfs tooling).
    pub fn fs_mut(&mut self) -> &mut FileSys<RamDisk> {
        &mut self.fs
    }

    fn parse(env: &GuestEnv, frame: i64) -> Request {
        let pw = env.machine.params().page_words;
        let w = |i: u64| env.page_word(frame, i);
        let op = w(0);
        let a = w(1);
        let b = w(2);
        let path_len = (w(3).max(0) as u64).min(pw.saturating_sub(5));
        let path: String = (0..path_len).map(|i| w(4 + i) as u8 as char).collect();
        let data_off = 4 + path_len;
        let data_len = (w(data_off).max(0) as u64).min(pw - data_off - 1);
        let data: Vec<i64> = (0..data_len).map(|i| w(data_off + 1 + i)).collect();
        Request {
            op,
            a,
            b,
            path,
            data,
        }
    }

    fn execute(&mut self, req: &Request) -> (i64, Vec<i64>) {
        let r: Result<Vec<i64>, FsError> = match req.op {
            op::CREATE => self.fs.create(&req.path, T_FILE).map(|i| vec![i as i64]),
            op::MKDIR => self.fs.create(&req.path, T_DIR).map(|i| vec![i as i64]),
            op::READ => self.fs.read(&req.path, req.a as u64, req.b as u64),
            op::WRITE => self
                .fs
                .write(&req.path, req.a as u64, &req.data)
                .map(|()| Vec::new()),
            op::STAT => self
                .fs
                .stat(&req.path)
                .map(|st| vec![st.inum as i64, st.ty, st.size as i64]),
            op::UNLINK => self.fs.unlink(&req.path).map(|()| Vec::new()),
            op::READDIR => self.fs.readdir(&req.path).map(|entries| {
                let mut out = Vec::new();
                for (inum, name) in entries {
                    out.push(inum as i64);
                    out.push(name.len() as i64);
                    out.extend(name.bytes().map(|b| b as i64));
                }
                out
            }),
            _ => Err(FsError::BadName),
        };
        match r {
            Ok(data) => (0, data),
            Err(e) => (encode_err(&e), Vec::new()),
        }
    }
}

impl GuestProg for FsServer {
    fn poll(&mut self, env: &mut GuestEnv) -> Poll {
        loop {
            match self.state {
                ServerState::Setup => {
                    // Drop any inherited descriptors; the server speaks
                    // IPC only.
                    let nr_fds = env.machine.params().nr_fds as i64;
                    for fd in 0..nr_fds {
                        env.hypercall(Sysno::Close, &[fd]);
                    }
                    let mut vm = UserVm::new(env.proc_field("pml4"));
                    match vm.mmap_any(env, &mut self.budget) {
                        Ok((_va, frame)) => {
                            self.frame = frame;
                            self.vm = Some(vm);
                            self.state = ServerState::Arming;
                        }
                        Err(e) => panic!("fs server setup failed: {e:?}"),
                    }
                }
                ServerState::Arming => {
                    let r = env.hypercall(Sysno::Recv, &[0, self.frame, -1]);
                    if r == 0 {
                        self.state = ServerState::Waiting;
                        return Poll::Pending; // now sleeping
                    }
                    if r == -EAGAIN {
                        return Poll::Pending; // nobody to yield to yet
                    }
                    panic!("fs server recv failed: {r}");
                }
                ServerState::Waiting => {
                    let sender = env.hvm_reg(2);
                    if sender == 0 {
                        // Spurious schedule; no message yet.
                        return Poll::Pending;
                    }
                    env.clear_hvm_reg(2);
                    let req = Self::parse(env, self.frame);
                    let (status, mut data) = self.execute(&req);
                    // Responses are capped at one page (the IPC transfer
                    // unit); larger reads must be chunked by the client.
                    data.truncate(env.machine.params().page_words as usize);
                    for (i, w) in data.iter().enumerate() {
                        env.set_page_word(self.frame, i as u64, *w);
                    }
                    self.served += 1;
                    self.state = ServerState::Replying {
                        client: sender,
                        status,
                        len: data.len() as i64,
                    };
                }
                ServerState::Replying {
                    client,
                    status,
                    len,
                } => {
                    let r = env.hypercall(Sysno::ReplyWait, &[client, status, self.frame, len, -1]);
                    if r == 0 {
                        // Reply delivered; we are re-armed and sleeping.
                        self.state = ServerState::Waiting;
                        return Poll::Pending;
                    }
                    if r == -EAGAIN {
                        // Client not yet blocked; let it run.
                        env.hypercall(Sysno::Yield, &[]);
                        return Poll::Pending;
                    }
                    panic!("fs server reply failed: {r}");
                }
            }
        }
    }
}

/// Client-side result of driving one IPC call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallResult {
    /// Still in flight; return `Poll::Pending` and try again when
    /// re-polled.
    NotYet,
    /// The server answered: `(status, response data)`.
    Done(i64, Vec<i64>),
}

/// Client state machine for request/response over IPC.
#[derive(Debug)]
pub struct IpcClient {
    /// The server process id.
    pub server: i64,
    state: ClientState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Idle,
    /// Sent, but not yet parked in `sys_recv`.
    NeedRecv,
    /// Parked; the next wake-up with our server as sender is the reply.
    Blocked,
}

impl IpcClient {
    /// A client of `server`.
    pub fn new(server: i64) -> IpcClient {
        IpcClient {
            server,
            state: ClientState::Idle,
        }
    }

    /// Drives one call forward. `frame` must be an owned frame holding
    /// the request (it is overwritten by the response).
    pub fn step(&mut self, env: &mut GuestEnv, frame: i64, req: &[i64]) -> CallResult {
        if self.state == ClientState::Idle {
            assert!(
                req.len() as u64 <= env.machine.params().page_words,
                "request larger than one page"
            );
            for (i, w) in req.iter().enumerate() {
                env.set_page_word(frame, i as u64, *w);
            }
            let r = env.hypercall(Sysno::Send, &[self.server, 1, frame, req.len() as i64, -1]);
            if r == -EAGAIN {
                // Server busy with someone else; retry later.
                env.hypercall(Sysno::Yield, &[]);
                return CallResult::NotYet;
            }
            assert_eq!(r, 0, "send to fs server failed: {r}");
            self.state = ClientState::NeedRecv;
        }
        if self.state == ClientState::NeedRecv {
            // Did the reply land already (we could not block earlier)?
            if env.hvm_reg(2) == self.server {
                return self.finish(env, frame);
            }
            let r = env.hypercall(Sysno::Recv, &[self.server, frame, -1]);
            if r == 0 {
                self.state = ClientState::Blocked;
                return CallResult::NotYet; // sleeping until the reply
            }
            if r == -EAGAIN {
                // Cannot block (no runnable successor); stay in NeedRecv
                // and retry on the next poll.
                return CallResult::NotYet;
            }
            panic!("recv for reply failed: {r}");
        }
        // Blocked and woken: check for the reply.
        if env.hvm_reg(2) != self.server {
            return CallResult::NotYet;
        }
        self.finish(env, frame)
    }

    fn finish(&mut self, env: &mut GuestEnv, frame: i64) -> CallResult {
        let status = env.hvm_reg(0);
        let len = env.hvm_reg(1).clamp(0, 512);
        env.clear_hvm_reg(2);
        self.state = ClientState::Idle;
        let data: Vec<i64> = (0..len as u64).map(|i| env.page_word(frame, i)).collect();
        CallResult::Done(status, data)
    }
}

//! Crash-safety harnesses for the write-ahead journal.
//!
//! The write schedule is not hand-modeled: it is extracted by running
//! the *real* `hk_user::fs::log::Log::commit` against a recording
//! [`ShadowDisk`], so the symbolic crash analysis replays exactly the
//! sector writes the code issues, in the code's order. Each write in
//! the schedule is then re-targeted at symbolic home LBAs and payloads,
//! a symbolic crash point truncates the schedule, and the *real*
//! recovery algorithm (mirrored step for step) runs on the crashed
//! state. Atomicity says the data region is then uniformly pre-commit
//! or uniformly post-commit — never torn.
//!
//! Bounding caveat (documented in DESIGN.md): sector writes are atomic
//! in this model, as in the `DiskIo` interface itself; crashes tear
//! *between* sector writes, not inside one.

use hk_smt::{Ctx, Model, Sort, TermId};
use hk_user::fs::disk::DiskIo;
use hk_user::fs::log::Log;

use crate::harness::{BmcConfig, HarnessReport, Prover, SeededBug};

/// Placeholder home LBA of staged sector `i` during schedule
/// extraction (far outside any bounded disk).
const HOME_BASE: u64 = 1000;
/// Marker payload word of staged sector `i` during extraction.
const MARK_BASE: i64 = 2000;

/// A disk that records every write and reads back zeros — the
/// instrument for extracting `commit`'s write schedule.
#[derive(Debug)]
pub struct ShadowDisk {
    sector_words: u64,
    nsectors: u64,
    /// All writes, in issue order.
    pub writes: Vec<(u64, Vec<i64>)>,
}

impl ShadowDisk {
    /// A fresh recorder.
    pub fn new(sector_words: u64, nsectors: u64) -> ShadowDisk {
        ShadowDisk {
            sector_words,
            nsectors,
            writes: Vec::new(),
        }
    }
}

impl DiskIo for ShadowDisk {
    fn sector_words(&self) -> u64 {
        self.sector_words
    }

    fn nsectors(&self) -> u64 {
        self.nsectors
    }

    fn read_sector(&mut self, _lba: u64, buf: &mut [i64]) {
        buf.fill(0);
    }

    fn write_sector(&mut self, lba: u64, buf: &[i64]) {
        self.writes.push((lba, buf.to_vec()));
    }
}

/// A disk wrapper that drops writes once its budget is exhausted — the
/// native crash simulation for the differential fuzz bridge.
#[derive(Debug)]
pub struct CrashDisk<D: DiskIo> {
    /// The disk that survives the crash.
    pub inner: D,
    /// Sector writes still allowed before the power fails.
    pub remaining: u64,
}

impl<D: DiskIo> CrashDisk<D> {
    /// Wraps `inner`, allowing `remaining` more sector writes.
    pub fn new(inner: D, remaining: u64) -> CrashDisk<D> {
        CrashDisk { inner, remaining }
    }
}

impl<D: DiskIo> DiskIo for CrashDisk<D> {
    fn sector_words(&self) -> u64 {
        self.inner.sector_words()
    }

    fn nsectors(&self) -> u64 {
        self.inner.nsectors()
    }

    fn read_sector(&mut self, lba: u64, buf: &mut [i64]) {
        self.inner.read_sector(lba, buf);
    }

    fn write_sector(&mut self, lba: u64, buf: &[i64]) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.inner.write_sector(lba, buf);
        }
    }
}

/// One write of the extracted commit schedule, classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymWrite {
    /// Staged sector `i` written into log slot `header_lba + 1 + i`.
    LogSlot(usize),
    /// The commit-point header (count + home LBAs).
    Header,
    /// Staged sector `i` installed at its home LBA.
    Install(usize),
    /// The header zeroed after install.
    HeaderClear,
}

/// Runs the real `Log::commit` for an `n`-sector transaction against a
/// [`ShadowDisk`] and classifies its write schedule. The
/// [`SeededBug::JournalHeaderFirst`] fixture reorders the extracted
/// schedule to publish the header before the log payload.
pub fn commit_schedule(
    n: usize,
    capacity: u64,
    sector_words: u64,
    bug: Option<SeededBug>,
) -> Vec<SymWrite> {
    assert!(n as u64 <= capacity && sector_words as usize > n);
    let disk = ShadowDisk::new(sector_words, 2 * HOME_BASE);
    let mut log = Log::new(disk, 0, capacity);
    log.begin();
    for i in 0..n {
        let marker = vec![MARK_BASE + i as i64; sector_words as usize];
        log.write(HOME_BASE + i as u64, &marker);
    }
    log.commit();
    let writes = log.into_disk().writes;

    let mut sched = Vec::new();
    for (lba, data) in writes {
        let w = if lba == 0 {
            if data[0] == 0 {
                SymWrite::HeaderClear
            } else {
                assert_eq!(data[0], n as i64, "header sector count");
                for (i, &h) in data[1..=n].iter().enumerate() {
                    assert_eq!(h, (HOME_BASE as i64) + i as i64, "header home lba");
                }
                SymWrite::Header
            }
        } else if lba >= HOME_BASE {
            let i = (lba - HOME_BASE) as usize;
            assert!(i < n, "install outside the transaction");
            assert_eq!(data[0], MARK_BASE + i as i64, "install payload");
            SymWrite::Install(i)
        } else {
            let j = (data[0] - MARK_BASE) as usize;
            assert!(j < n, "unrecognized log payload");
            assert_eq!(lba, 1 + j as u64, "log slot placement");
            SymWrite::LogSlot(j)
        };
        sched.push(w);
    }
    // The code's protocol: n log writes, header, n installs, clear.
    assert_eq!(sched.len(), 2 * n + 2, "unexpected schedule length");
    assert_eq!(sched[n], SymWrite::Header, "commit point out of place");
    assert_eq!(*sched.last().unwrap(), SymWrite::HeaderClear);

    if bug == Some(SeededBug::JournalHeaderFirst) {
        // Seeded bug: publish the commit point before the log payload
        // has been made durable.
        sched.remove(n);
        sched.insert(0, SymWrite::Header);
    }
    sched
}

/// A symbolic disk: `nsectors` sectors of `sector_words` 64-bit words.
pub type DiskState = Vec<Vec<TermId>>;

/// One symbolic crash/recovery instance for an `n`-sector transaction.
pub struct FsLogInstance {
    /// Staged sectors in the transaction.
    pub n: usize,
    /// Words per sector.
    pub sector_words: u64,
    /// Disk size in sectors.
    pub nsectors: u64,
    /// Log capacity (slots).
    pub capacity: u64,
    /// Initial disk contents (free variables; header assumed clean).
    pub d0: DiskState,
    /// Symbolic home LBAs of the staged sectors.
    pub homes: Vec<TermId>,
    /// Symbolic payloads of the staged sectors.
    pub payloads: Vec<Vec<TermId>>,
    /// Symbolic crash point: writes `< crash` land, the rest are lost.
    pub crash: TermId,
    /// The extracted write schedule.
    pub schedule: Vec<SymWrite>,
    /// Disk as the crash left it.
    pub crash_state: DiskState,
    /// Disk after one recovery.
    pub recovered: DiskState,
    /// Disk after a second recovery.
    pub recovered_twice: DiskState,
    /// Data region uniformly equals the pre-commit contents.
    pub match_pre: TermId,
    /// Data region uniformly equals the post-commit contents.
    pub match_post: TermId,
    /// Both recoveries agree on every sector.
    pub idempotent: TermId,
    /// Constraints the instance needs (home bounds/distinctness, crash
    /// bound, clean initial header).
    pub assumptions: Vec<TermId>,
}

/// Mirrors `Log::recover` over a symbolic disk state: buffer the
/// header, replay `header[1+i] < header[0]` slots, clear the header if
/// it named anything.
fn apply_recovery(ctx: &mut Ctx, st: &DiskState, capacity: u64) -> DiskState {
    let sw = st[0].len();
    let nh = st[0][0];
    let zero = ctx.bv_const(64, 0);
    let mut out = st.clone();
    for i in 0..capacity {
        let ic = ctx.bv_const(64, i);
        let active = ctx.ult(ic, nh);
        let home = st[0][1 + i as usize];
        let slot = 1 + i as usize;
        let buf: Vec<TermId> = out[slot].clone();
        for (s, sector) in out.iter_mut().enumerate() {
            let sc = ctx.bv_const(64, s as u64);
            let here = ctx.eq(home, sc);
            let hit = ctx.and2(active, here);
            for w in 0..sw {
                sector[w] = ctx.ite(hit, buf[w], sector[w]);
            }
        }
    }
    let committed = ctx.ne(nh, zero);
    for word in out[0].iter_mut() {
        *word = ctx.ite(committed, zero, *word);
    }
    out
}

/// Encodes the full crash/recovery circuit for an `n`-sector commit.
pub fn encode_fslog(ctx: &mut Ctx, cfg: &BmcConfig, n: usize) -> FsLogInstance {
    let (sw, nsectors, capacity) = cfg.fs_bounds();
    let data_lo = capacity + 1;
    let mut assumptions = Vec::new();
    let zero = ctx.bv_const(64, 0);

    let mut d0: DiskState = Vec::new();
    for s in 0..nsectors {
        let mut sector = Vec::new();
        for w in 0..sw {
            sector.push(ctx.var(format!("n{n}_d0_s{s}_w{w}"), Sort::Bv(64)));
        }
        d0.push(sector);
    }
    // The disk was cleanly unmounted: no pending log in the header.
    for &word in &d0[0] {
        assumptions.push(ctx.eq(word, zero));
    }

    let lo = ctx.bv_const(64, data_lo);
    let hi = ctx.bv_const(64, nsectors);
    let mut homes = Vec::new();
    for i in 0..n {
        let h = ctx.var(format!("n{n}_home{i}"), Sort::Bv(64));
        assumptions.push(ctx.ule(lo, h));
        assumptions.push(ctx.ult(h, hi));
        homes.push(h);
    }
    assumptions.push(ctx.distinct(&homes));

    let mut payloads = Vec::new();
    for i in 0..n {
        let mut p = Vec::new();
        for w in 0..sw {
            p.push(ctx.var(format!("n{n}_p{i}_w{w}"), Sort::Bv(64)));
        }
        payloads.push(p);
    }

    let schedule = commit_schedule(n, capacity, sw, cfg.seeded_bug);
    let crash = ctx.var(format!("n{n}_crash"), Sort::Bv(64));
    let len_c = ctx.bv_const(64, schedule.len() as u64);
    assumptions.push(ctx.ule(crash, len_c));

    // Replay the schedule; each write lands iff it precedes the crash.
    let mut state = d0.clone();
    for (t, wr) in schedule.iter().enumerate() {
        let tc = ctx.bv_const(64, t as u64);
        let done = ctx.ult(tc, crash);
        match *wr {
            SymWrite::LogSlot(j) => {
                let slot = 1 + j;
                for w in 0..sw as usize {
                    state[slot][w] = ctx.ite(done, payloads[j][w], state[slot][w]);
                }
            }
            SymWrite::Header => {
                let nc = ctx.bv_const(64, n as u64);
                state[0][0] = ctx.ite(done, nc, state[0][0]);
                for (i, &h) in homes.iter().enumerate() {
                    state[0][1 + i] = ctx.ite(done, h, state[0][1 + i]);
                }
                for word in state[0].iter_mut().skip(1 + n) {
                    *word = ctx.ite(done, zero, *word);
                }
            }
            SymWrite::Install(i) => {
                for (s, sector) in state.iter_mut().enumerate() {
                    let sc = ctx.bv_const(64, s as u64);
                    let here = ctx.eq(homes[i], sc);
                    let hit = ctx.and2(done, here);
                    for w in 0..sw as usize {
                        sector[w] = ctx.ite(hit, payloads[i][w], sector[w]);
                    }
                }
            }
            SymWrite::HeaderClear => {
                for word in state[0].iter_mut() {
                    *word = ctx.ite(done, zero, *word);
                }
            }
        }
    }
    let crash_state = state;
    let recovered = apply_recovery(ctx, &crash_state, capacity);
    let recovered_twice = apply_recovery(ctx, &recovered, capacity);

    // Post-commit disk: payloads installed at their homes.
    let mut post = d0.clone();
    for (s, sector) in post.iter_mut().enumerate() {
        let sc = ctx.bv_const(64, s as u64);
        for (i, &h) in homes.iter().enumerate() {
            let here = ctx.eq(h, sc);
            for w in 0..sw as usize {
                sector[w] = ctx.ite(here, payloads[i][w], sector[w]);
            }
        }
    }

    let mut pre_eqs = Vec::new();
    let mut post_eqs = Vec::new();
    for s in data_lo as usize..nsectors as usize {
        for w in 0..sw as usize {
            pre_eqs.push(ctx.eq(recovered[s][w], d0[s][w]));
            post_eqs.push(ctx.eq(recovered[s][w], post[s][w]));
        }
    }
    let match_pre = ctx.and(&pre_eqs);
    let match_post = ctx.and(&post_eqs);

    let mut idem = Vec::new();
    for s in 0..nsectors as usize {
        for w in 0..sw as usize {
            idem.push(ctx.eq(recovered[s][w], recovered_twice[s][w]));
        }
    }
    let idempotent = ctx.and(&idem);

    FsLogInstance {
        n,
        sector_words: sw,
        nsectors,
        capacity,
        d0,
        homes,
        payloads,
        crash,
        schedule,
        crash_state,
        recovered,
        recovered_twice,
        match_pre,
        match_post,
        idempotent,
        assumptions,
    }
}

fn render_region(ctx: &Ctx, model: &Model, st: &DiskState, lo: usize) -> String {
    let mut out = String::new();
    for (s, sector) in st.iter().enumerate().skip(lo) {
        out.push_str(&format!("    lba {s}:"));
        for &w in sector {
            out.push_str(&format!(" {}", model.eval_i64(ctx, w).unwrap_or(0)));
        }
        out.push('\n');
    }
    out
}

fn render_fslog_cex(ctx: &Ctx, model: &Model, inst: &FsLogInstance) -> String {
    let crash = model.eval_bv(ctx, inst.crash).unwrap_or(0);
    let mut out = format!(
        "fs-log counterexample: n={} crash after write {crash}/{}\n  schedule:",
        inst.n,
        inst.schedule.len()
    );
    for (t, wr) in inst.schedule.iter().enumerate() {
        let mark = if (t as u64) < crash { "done" } else { "lost" };
        out.push_str(&format!(" {wr:?}[{mark}]"));
    }
    out.push('\n');
    for (i, &h) in inst.homes.iter().enumerate() {
        out.push_str(&format!(
            "  staged[{i}]: home lba {}\n",
            model.eval_bv(ctx, h).unwrap_or(0)
        ));
    }
    let lo = (inst.capacity + 1) as usize;
    out.push_str("  pre-commit data region:\n");
    out.push_str(&render_region(ctx, model, &inst.d0, lo));
    out.push_str("  crash-state data region:\n");
    out.push_str(&render_region(ctx, model, &inst.crash_state, lo));
    out.push_str("  recovered data region:\n");
    out.push_str(&render_region(ctx, model, &inst.recovered, lo));
    out
}

fn bounds_of(cfg: &BmcConfig) -> String {
    let (sw, d, cap) = cfg.fs_bounds();
    format!("sector_words={sw} nsectors={d} log_capacity={cap}")
}

/// Harness: for every transaction size, crash point, home placement,
/// payload, and initial disk, recovery yields the pre-commit or
/// post-commit data region — never a torn mix.
pub fn crash_atomicity(cfg: &BmcConfig) -> HarnessReport {
    let (_, _, capacity) = cfg.fs_bounds();
    let mut ctx = Ctx::new();
    let instances: Vec<FsLogInstance> = (1..=capacity as usize)
        .map(|n| encode_fslog(&mut ctx, cfg, n))
        .collect();
    let mut prover = Prover::new(ctx);
    for inst in &instances {
        for &a in &inst.assumptions {
            prover.assume(a);
        }
    }
    for inst in &instances {
        let prop = prover.ctx.or2(inst.match_pre, inst.match_post);
        prover.prove(prop, |ctx, model| render_fslog_cex(ctx, model, inst));
    }
    prover.finish("fslog_crash_atomicity", "fslog", bounds_of(cfg))
}

/// Harness: recovery is idempotent — a second recovery pass (e.g. a
/// crash during the first mount) changes nothing, on any crashed disk.
pub fn recovery_idempotent(cfg: &BmcConfig) -> HarnessReport {
    let (_, _, capacity) = cfg.fs_bounds();
    let mut ctx = Ctx::new();
    let instances: Vec<FsLogInstance> = (1..=capacity as usize)
        .map(|n| encode_fslog(&mut ctx, cfg, n))
        .collect();
    let mut prover = Prover::new(ctx);
    for inst in &instances {
        for &a in &inst.assumptions {
            prover.assume(a);
        }
    }
    for inst in &instances {
        prover.prove(inst.idempotent, |ctx, model| {
            format!(
                "second recovery diverged\n{}",
                render_fslog_cex(ctx, model, inst)
            )
        });
    }
    prover.finish("fslog_recovery_idempotent", "fslog", bounds_of(cfg))
}

//! Speculative lookahead for [`crate::Crawler::crawl_ahead`]: worker
//! threads prepare the frontier entries the crawl thread is about to
//! pop, and the crawl thread commits every page in pop order.
//!
//! Preparing a page is the pure half of a step — the fetch, MIME/size
//! admission, the content stage ([`prepare_content`]) against a
//! read-only view of the dictionary ([`KnownTerms`]) and the judge's
//! [`Assess`] half. Everything with state stays on the crawl thread:
//! DNS, breakers, fingerprints, interning, the judge's commit half,
//! bulk-load, settle and the link enqueue.
//!
//! After each commit the crawl thread requests the not-yet-requested
//! entries among the best [`LOOKAHEAD`] of the frontier. A request
//! records what its preparation assumes, and the preparation is used at
//! the entry's pop only when all of it still holds: the popped entry
//! equals the requested one (its neighbour terms included), the epoch
//! (one `crawl_ahead` call, one judge) is the same, the host has no
//! fault window, the gates — URL hygiene, breaker, DNS,
//! response fingerprints — let the page through, and no token's stem
//! was missing from the dictionary at request time. Otherwise the page
//! is prepared inline, so output never depends on the number of workers.
//!
//! The request schedule — not which thread did the work — defines the
//! `crawl.lookahead.*` counters: with no worker at all the crawl thread
//! keeps the same schedule and prepares every page inline, and the
//! counters read the same.

use crate::frontier::QueueEntry;
use crate::pipeline::{admit, prepare_content, Content};
use crate::Assess;
use bingo_obs::{Counter, Registry};
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::{FxHashMap, FxHashSet};
use bingo_textproc::{AnalyzedDocument, ContentRegistry, KnownTerms, Vocabulary};
use bingo_webworld::{FetchOutcome, World};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{Scope, ScopedJoinHandle};

/// How many of the best frontier entries are requested after each
/// commit.
pub const LOOKAHEAD: usize = 8;

/// The `crawl.lookahead.*` counters.
#[derive(Clone)]
pub struct LookaheadMetrics {
    /// Entries requested.
    pub requested: Counter,
    /// Requested pops whose preparation was valid and consumed.
    pub used: Counter,
    /// Requested pops prepared inline, one counter per [`Miss`].
    misses: [Counter; Miss::ALL.len()],
    /// Requests still outstanding when their epoch ended.
    pub discarded: Counter,
}

impl LookaheadMetrics {
    /// Register the `crawl.lookahead.*` handles in `registry`.
    pub fn new(registry: &Registry) -> Self {
        LookaheadMetrics {
            requested: registry.counter("crawl.lookahead.requested"),
            used: registry.counter("crawl.lookahead.used"),
            misses: Miss::ALL
                .map(|m| registry.counter(&format!("crawl.lookahead.miss.{}", m.name()))),
            discarded: registry.counter("crawl.lookahead.discarded"),
        }
    }
}

/// Why a requested pop could not use its preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Miss {
    /// The popped entry differs from the requested one: it came back
    /// to the frontier changed, as a retry.
    Entry,
    /// The request was made under another judge (an earlier epoch).
    Epoch,
    /// The host has a fault window: the fetch depends on `now`.
    Fault,
    /// URL hygiene, the breaker, DNS or the response fingerprints
    /// turned the page away.
    Gate,
    /// A token's stem was not in the dictionary at request time.
    Unknown,
}

impl Miss {
    const ALL: [Miss; 5] = [
        Miss::Entry,
        Miss::Epoch,
        Miss::Fault,
        Miss::Gate,
        Miss::Unknown,
    ];

    fn name(self) -> &'static str {
        match self {
            Miss::Entry => "entry",
            Miss::Epoch => "epoch",
            Miss::Fault => "fault",
            Miss::Gate => "gate",
            Miss::Unknown => "unknown",
        }
    }
}

/// One request on the schedule: what its preparation assumed.
struct Request {
    entry: Arc<QueueEntry>,
    dict_len: usize,
    epoch: u64,
    timeless: bool,
    /// Sequence number of the job, when one was queued.
    job: Option<u64>,
}

/// The crawl thread's requests, keyed by URL. An epoch is one call of
/// the lookahead loop: the judge is fixed for its duration, so a
/// request from an earlier epoch is stale. A request follows its URL
/// until the URL leaves the frontier, across epochs.
#[derive(Default)]
pub(crate) struct Schedule {
    requests: FxHashMap<String, Request>,
    epoch: u64,
    /// Requests of the current epoch not yet popped.
    outstanding: u64,
    /// The workers' dictionary replicas, kept from one epoch to the next.
    replicas: Vec<Vocabulary>,
}

/// A requested pop as [`Schedule::ticket`] found it.
pub(crate) enum Verdict {
    /// Prepared inline for this reason.
    Miss(Miss),
    /// Valid so far; the commit decides the rest.
    Valid { dict_len: usize, job: Option<u64> },
}

impl Schedule {
    /// Start an epoch with `workers` workers: hand out their replicas
    /// of `vocab`, the ones kept from the last epoch brought up to date.
    pub(crate) fn open_epoch(&mut self, workers: usize, vocab: &Vocabulary) -> Vec<Vocabulary> {
        self.epoch += 1;
        self.outstanding = 0;
        self.replicas.resize_with(workers, Vocabulary::new);
        for replica in &mut self.replicas {
            replica.mirror(vocab);
        }
        std::mem::take(&mut self.replicas)
    }

    /// End the epoch: its outstanding requests are discarded, and the
    /// replicas its workers return are kept.
    pub(crate) fn close_epoch(&mut self, replicas: Vec<Vocabulary>, metrics: &LookaheadMetrics) {
        metrics.discarded.add(self.outstanding);
        self.replicas = replicas;
    }

    /// Request the not-yet-requested entries of `best` (the frontier's
    /// next pops), each against the dictionary as it stands, and hand
    /// them to `pool`.
    pub(crate) fn request<A: Assess>(
        &mut self,
        best: Vec<&QueueEntry>,
        store: &DocumentStore,
        world: &World,
        vocab: &Vocabulary,
        pool: &mut Pool<'_, A>,
        metrics: &LookaheadMetrics,
    ) {
        for entry in best {
            if self.requests.contains_key(&entry.url) {
                continue;
            }
            metrics.requested.inc();
            self.outstanding += 1;
            let entry = Arc::new(entry.clone());
            let timeless = world.fetch_ignores_time(&entry.url);
            // A page the crawl has stored before (through another URL)
            // can only come back as duplicate content: not worth a job.
            let seen = world
                .resolve_url(&entry.url)
                .is_some_and(|p| store.contains(p));
            let job = (timeless && !seen)
                .then(|| pool.send(&entry, vocab))
                .flatten();
            self.requests.insert(
                entry.url.clone(),
                Request {
                    entry,
                    dict_len: vocab.len(),
                    epoch: self.epoch,
                    timeless,
                    job,
                },
            );
        }
    }

    /// Take the request of a popped entry, if there is one, and check
    /// the rules a preparation must pass before the commit starts: same
    /// entry, same epoch, a fetch that does not depend on time.
    pub(crate) fn ticket(&mut self, entry: &QueueEntry) -> Option<Ticket> {
        let request = self.requests.remove(&entry.url)?;
        let verdict = if *request.entry != *entry {
            Verdict::Miss(Miss::Entry)
        } else if request.epoch != self.epoch {
            Verdict::Miss(Miss::Epoch)
        } else if !request.timeless {
            Verdict::Miss(Miss::Fault)
        } else {
            Verdict::Valid {
                dict_len: request.dict_len,
                job: request.job,
            }
        };
        Some(Ticket {
            request,
            verdict,
            fetched: false,
            late: None,
            comes_back: false,
        })
    }

    /// Close a requested pop: count it, and drop from `pool` a
    /// preparation of this epoch the commit never took — or, when the
    /// entry went back to the frontier, put the request back for the
    /// entry's next pop: a request follows its URL until the URL leaves
    /// the frontier.
    pub(crate) fn settle<A: Assess>(
        &mut self,
        ticket: Ticket,
        metrics: &LookaheadMetrics,
        pool: &mut Pool<'_, A>,
    ) {
        let mut request = ticket.request;
        if ticket.comes_back {
            if ticket.fetched {
                request.job = None;
            }
            self.requests.insert(request.entry.url.clone(), request);
            return;
        }
        // A job of an earlier epoch went to workers that are gone.
        let current = request.epoch == self.epoch;
        if current {
            self.outstanding -= 1;
            if let Some(job) = request.job.filter(|_| !ticket.fetched) {
                pool.abandon(job);
            }
        }
        let miss = match ticket.verdict {
            Verdict::Miss(miss) => Some(miss),
            Verdict::Valid { .. } if !ticket.fetched => Some(Miss::Gate),
            Verdict::Valid { .. } => ticket.late,
        };
        match miss {
            Some(miss) => metrics.misses[miss as usize].inc(),
            None => metrics.used.inc(),
        }
    }
}

/// How a requested pop went, as the commit saw it.
pub(crate) struct Ticket {
    request: Request,
    verdict: Verdict,
    /// The commit reached the fetch (no gate before it turned the page
    /// away).
    pub fetched: bool,
    /// What the commit found after the fetch: duplicate content
    /// ([`Miss::Gate`]) or a stem that was unknown at request time.
    pub late: Option<Miss>,
    /// The entry went back to the frontier: parked unchanged by an open
    /// breaker, or as a retry (which the entry rule then tells apart).
    pub comes_back: bool,
}

impl Ticket {
    /// The job whose preparation this pop may consume.
    pub(crate) fn job(&self) -> Option<u64> {
        match self.verdict {
            Verdict::Valid { job, .. } => job,
            Verdict::Miss(_) => None,
        }
    }

    /// Check the page the commit analyzed: a term id at or past the
    /// dictionary length at request time was unknown then, so the page
    /// was analyzed inline. (Term frequencies are sorted by id.)
    pub(crate) fn check_terms(&mut self, doc: &AnalyzedDocument) {
        if let Verdict::Valid { dict_len, .. } = self.verdict {
            let anchors = doc
                .links
                .iter()
                .flat_map(|l| l.anchor_terms.iter().copied());
            let newest = doc
                .term_freqs
                .last()
                .map(|&(t, _)| t)
                .into_iter()
                .chain(anchors)
                .max();
            if newest.is_some_and(|t| t.0 as usize >= dict_len) {
                self.late = Some(Miss::Unknown);
            }
        }
    }
}

/// A page prepared ahead of its commit.
pub(crate) struct Prepared<T> {
    pub fetch: FetchOutcome,
    /// The content stage and the judge's assessment, when the fetch was
    /// a complete, admitted response and every stem was known.
    pub content: Option<(Content, Option<T>)>,
}

/// What a worker is asked to prepare.
struct Job {
    seq: u64,
    entry: Arc<QueueEntry>,
    dict_len: usize,
}

/// What the crawl thread and the workers of one epoch share.
#[derive(Default)]
struct Board {
    /// Jobs no worker has started, oldest first.
    jobs: VecDeque<Job>,
    /// Dictionary terms appended since the workers' copies were made.
    log: Vec<String>,
    /// Workers waiting for a job.
    idle: usize,
    /// The epoch is over.
    closed: bool,
}

/// A worker's answer: the preparation, or `None` after a panic.
type Answer<T> = (u64, Option<Prepared<T>>);

/// A worker thread, returning its replica — `None` after a panic.
type Worker<'s> = ScopedJoinHandle<'s, Option<Vocabulary>>;

/// The workers of one epoch, as the crawl thread sees them. Jobs wait on
/// one shared queue, oldest first. When the crawl thread needs a job no
/// worker has started, it takes it back and prepares the page inline;
/// when the job is under way, it prepares the oldest queued job itself
/// rather than wait, so the two sides share the work. With no worker,
/// nothing is queued and every page is prepared inline.
pub(crate) struct Pool<'s, A: Assess> {
    world: &'s World,
    assess: &'s A,
    registry: ContentRegistry,
    board: Arc<(Mutex<Board>, Condvar)>,
    workers: Vec<Worker<'s>>,
    /// Dictionary length the board's log reaches.
    logged: usize,
    answers: Receiver<Answer<A::Assessment>>,
    /// Preparations done before they were needed.
    ready: FxHashMap<u64, Prepared<A::Assessment>>,
    /// Started jobs whose answer nobody will take.
    abandoned: FxHashSet<u64>,
    next_seq: u64,
}

impl<'s, A: Assess> Pool<'s, A> {
    /// Spawn one worker per replica in `scope`, preparing against
    /// `world` with `assess`. Every replica mirrors the crawl's
    /// dictionary, which is `dict_len` terms long.
    pub(crate) fn spawn<'e: 's>(
        scope: &'s Scope<'s, 'e>,
        world: &'e World,
        assess: &'e A,
        replicas: Vec<Vocabulary>,
        dict_len: usize,
    ) -> Self {
        let board = Arc::new((Mutex::new(Board::default()), Condvar::new()));
        let (answer, answers) = channel();
        let workers = replicas
            .into_iter()
            .map(|replica| {
                let (board, answer) = (Arc::clone(&board), answer.clone());
                scope.spawn(move || work(world, assess, &board, replica, answer))
            })
            .collect();
        Pool {
            world,
            assess,
            registry: ContentRegistry::new(),
            board,
            workers,
            logged: dict_len,
            answers,
            ready: FxHashMap::default(),
            abandoned: FxHashSet::default(),
            next_seq: 0,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Board> {
        self.board.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue `entry` for the workers; `None` without workers.
    fn send(&mut self, entry: &Arc<QueueEntry>, vocab: &Vocabulary) -> Option<u64> {
        if self.workers.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let logged = std::mem::replace(&mut self.logged, vocab.len());
        let mut board = self.lock();
        board.log.extend_from_slice(vocab.terms_from(logged));
        board.jobs.push_back(Job {
            seq,
            entry: Arc::clone(entry),
            dict_len: vocab.len(),
        });
        let idle = board.idle > 0;
        drop(board);
        if idle {
            self.board.1.notify_one();
        }
        Some(seq)
    }

    /// Take job `seq` back if no worker has started it.
    fn unqueue(&self, seq: u64) -> bool {
        let mut board = self.lock();
        let at = board.jobs.iter().position(|job| job.seq == seq);
        at.and_then(|at| board.jobs.remove(at)).is_some()
    }

    /// File a worker's answer.
    fn receive(&mut self, (seq, prepared): Answer<A::Assessment>) {
        match prepared {
            Some(p) if !self.abandoned.remove(&seq) => {
                self.ready.insert(seq, p);
            }
            // A failed job is prepared inline when its entry is popped.
            _ => {}
        }
    }

    /// The preparation of job `seq`; `None` means prepare inline.
    pub(crate) fn take(
        &mut self,
        seq: u64,
        vocab: &mut Vocabulary,
    ) -> Option<Prepared<A::Assessment>> {
        loop {
            while let Ok(answer) = self.answers.try_recv() {
                if answer.0 == seq {
                    return answer.1;
                }
                self.receive(answer);
            }
            if let Some(prepared) = self.ready.remove(&seq) {
                return Some(prepared);
            }
            if self.unqueue(seq) {
                return None;
            }
            // A worker has it: help with the oldest queued job meanwhile.
            let next = self.lock().next_job();
            match next {
                Some(job) => {
                    let prepared = prepare(self.world, &self.registry, vocab, self.assess, &job);
                    self.ready.insert(job.seq, prepared);
                }
                None => match self.answers.recv() {
                    Ok(answer) if answer.0 == seq => return answer.1,
                    Ok(answer) => self.receive(answer),
                    Err(_) => return None,
                },
            }
        }
    }

    /// Job `seq` will not be taken.
    fn abandon(&mut self, seq: u64) {
        if self.ready.remove(&seq).is_none() && !self.unqueue(seq) {
            self.abandoned.insert(seq);
        }
    }
}

impl Board {
    /// The queued job the crawl will want first: the best priority, the
    /// oldest among equals (the frontier pops in that order).
    fn next_job(&mut self) -> Option<Job> {
        let best = (0..self.jobs.len()).reduce(|best, at| {
            if self.jobs[at].entry.priority > self.jobs[best].entry.priority {
                at
            } else {
                best
            }
        })?;
        self.jobs.remove(best)
    }
}

impl<A: Assess> Pool<'_, A> {
    /// Close the epoch: the workers stop and hand back their replicas
    /// (a worker that panicked has none).
    pub(crate) fn finish(mut self) -> Vec<Vocabulary> {
        self.close();
        std::mem::take(&mut self.workers)
            .into_iter()
            .filter_map(|worker| worker.join().ok().flatten())
            .collect()
    }

    fn close(&self) {
        self.lock().closed = true;
        self.board.1.notify_all();
    }
}

impl<A: Assess> Drop for Pool<'_, A> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A worker: take the queued job the crawl will want first, bring the
/// replica of the crawl thread's dictionary up to date from the board's
/// log, and prepare the job against the replica's first `dict_len`
/// terms (the replica may be ahead of a job requested earlier than the
/// last one it synced to). Exits when the epoch closes, or
/// after a panic (its job is then prepared inline, and the sequential
/// code path decides whether the crawl fails).
fn work<A: Assess>(
    world: &World,
    assess: &A,
    board: &(Mutex<Board>, Condvar),
    mut replica: Vocabulary,
    answer: Sender<Answer<A::Assessment>>,
) -> Option<Vocabulary> {
    let registry = ContentRegistry::new();
    let base = replica.len();
    loop {
        let (job, tail) = {
            let mut b = board.0.lock().unwrap_or_else(|e| e.into_inner());
            let job = loop {
                if b.closed {
                    return Some(replica);
                }
                match b.next_job() {
                    Some(job) => break job,
                    None => {
                        b.idle += 1;
                        b = board.1.wait(b).unwrap_or_else(|e| e.into_inner());
                        b.idle -= 1;
                    }
                }
            };
            let tail = b.log[replica.len() - base..].to_vec();
            (job, tail)
        };
        let prepared = catch_unwind(AssertUnwindSafe(|| {
            for term in &tail {
                replica.intern(term);
            }
            prepare(world, &registry, &mut replica, assess, &job)
        }))
        .ok();
        let failed = prepared.is_none();
        if answer.send((job.seq, prepared)).is_err() || failed {
            return (!failed).then_some(replica);
        }
    }
}

/// The pure half of a crawl step for one job.
fn prepare<A: Assess>(
    world: &World,
    registry: &ContentRegistry,
    replica: &mut Vocabulary,
    assess: &A,
    job: &Job,
) -> Prepared<A::Assessment> {
    // Requests are sent only for hosts without a fault window, whose
    // fetch is the same at every virtual time.
    let mut fetch = world.fetch_at(&job.entry.url, job.entry.attempt, 0);
    let content = match &mut fetch {
        FetchOutcome::Ok(response) if !response.truncated && admit(registry, response) => {
            let mut known = KnownTerms::new(replica, job.dict_len);
            match prepare_content(registry, response, &mut known) {
                Content::Analyzed(doc) if known.all_known() => {
                    let assessment =
                        assess.assess(&doc, &job.entry.anchor_terms, &job.entry.neighbor_terms);
                    // The commit reads no body it does not convert: free
                    // it on the thread that allocated it.
                    response.payload = String::new();
                    Some((Content::Analyzed(doc), Some(assessment)))
                }
                Content::Analyzed(_) => None,
                Content::Malformed => Some((Content::Malformed, None)),
            }
        }
        _ => None,
    };
    Prepared { fetch, content }
}

//! Deterministic leader election with epoch fencing.
//!
//! When a follower's failure detector declares the leader dead, the node
//! runs [`try_elect`]. The protocol is a pre-vote-style two round trip
//! over the ordinary wire protocol's `ReplVote` opcode:
//!
//! 1. **Probe round** (`ReplVote` with `epoch == 0`, never grantable):
//!    ask every peer for its `(epoch, last_seq, leader_live,
//!    leader_hint)`. Three things can short-circuit the candidacy:
//!    a reachable peer that *is* a live leader (adopt it — the "dead"
//!    leader was a local blip or a partition just healed), a reachable
//!    peer that is strictly more caught up (stand by — that node will
//!    nominate itself, and voters would refuse us anyway), or fewer than
//!    a majority of the group reachable (report [`ElectionOutcome::NoQuorum`]
//!    rather than spin a doomed candidacy).
//! 2. **Vote round**: self-nominate at `max(known epochs) + 1` and ask
//!    every reachable peer for a vote. A peer grants at most one vote per
//!    epoch and only to candidates at least as caught up as itself
//!    (`(last_seq, addr)` lexicographic), so two candidates at the same
//!    epoch cannot both win, and any winner holds every quorum-acked
//!    write (its vote majority intersects every ack majority in a node
//!    that refused to vote for a less-caught-up candidate).
//!
//! The vote RPC doubles as a fencing channel: a deposed leader receiving
//! `ReplVote` observes the higher epoch and steps down before the new
//! leader takes its first write. Vote messages honour the
//! `repl.vote.drop` fault point so chaos tests can partition elections.

use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use miodb_common::proto::{self, FrameDecoder, Request, Response};
use miodb_common::{fault, majority, Error, Result, RoleState};

/// What one peer said during a probe or vote round.
#[derive(Debug, Clone)]
pub struct PeerStatus {
    /// Peer address the RPC targeted.
    pub addr: String,
    /// Vote granted (always `false` for probes).
    pub granted: bool,
    /// Peer's replication epoch.
    pub epoch: u64,
    /// Peer's highest applied sequence number.
    pub last_seq: u64,
    /// Peer believes the leader it follows is alive (or is itself a
    /// live leader).
    pub leader_live: bool,
    /// Peer's believed leader address (empty when unknown).
    pub leader_hint: String,
}

/// Result of one [`try_elect`] round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionOutcome {
    /// This node won a majority of votes and assumed leadership at
    /// `epoch`.
    Won {
        /// The fresh mandate's epoch.
        epoch: u64,
    },
    /// A reachable peer is a live leader (possibly at a newer epoch):
    /// follow it instead of running a candidacy.
    FollowLeader {
        /// The live leader's address.
        addr: String,
        /// Its epoch.
        epoch: u64,
    },
    /// A better-qualified peer is reachable, or the candidacy lost the
    /// vote: wait a beat and re-probe (the better peer should win).
    Standby,
    /// Fewer than a majority of the group is reachable: no election can
    /// succeed. Callers degrade to [`Error::QuorumLost`] behaviour.
    NoQuorum,
}

/// One `ReplVote` round trip to `addr`. `epoch == 0` is a probe (peers
/// answer with status but never grant).
///
/// # Errors
///
/// Returns [`Error::Io`] when the peer is unreachable or the injected
/// `repl.vote.drop` fault swallows the message, and [`Error::Background`]
/// when the peer does not speak the vote protocol.
pub fn vote_rpc(
    addr: &str,
    epoch: u64,
    last_seq: u64,
    candidate: &str,
    timeout: Duration,
) -> Result<PeerStatus> {
    if fault::hit(fault::points::REPL_VOTE_DROP).is_some() {
        return Err(Error::Io(std::io::Error::other("injected vote drop")));
    }
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| Error::Background(format!("bad peer address {addr:?}: {e}")))?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout).map_err(Error::Io)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut writer = BufWriter::new(&stream);
    let req = Request::ReplVote {
        epoch,
        last_seq,
        candidate: candidate.to_string(),
    };
    proto::write_request(&mut writer, 1, &req).map_err(Error::Io)?;
    writer.flush().map_err(Error::Io)?;
    match FrameDecoder::new().read_frame(&mut &stream)? {
        Some(frame) => match Response::decode(frame.opcode, &frame.body)? {
            Response::Vote {
                granted,
                epoch,
                last_seq,
                leader_live,
                leader_hint,
            } => Ok(PeerStatus {
                addr: addr.to_string(),
                granted,
                epoch,
                last_seq,
                leader_live,
                leader_hint,
            }),
            Response::Err(msg) => Err(Error::Background(format!("vote refused: {msg}"))),
            other => Err(Error::Background(format!(
                "unexpected vote reply: {other:?}"
            ))),
        },
        None => Err(Error::Io(std::io::Error::other(
            "peer closed connection during vote",
        ))),
    }
}

/// Probes every peer (vote RPC at epoch 0) and returns the reachable
/// ones' statuses.
pub fn probe_peers(peers: &[String], self_addr: &str, timeout: Duration) -> Vec<PeerStatus> {
    peers
        .iter()
        .filter(|p| p.as_str() != self_addr)
        .filter_map(|p| vote_rpc(p, 0, 0, self_addr, timeout).ok())
        .collect()
}

/// Runs one election round for the node at `self_addr` whose engine has
/// applied `my_seq`. `peers` is the full group membership (this node's
/// own address may be included; it is skipped). Adopts any newer epoch
/// learned along the way into `role`, and on a win flips `role` to
/// leader at the new epoch.
pub fn try_elect(
    role: &Arc<RoleState>,
    self_addr: &str,
    peers: &[String],
    my_seq: u64,
    timeout: Duration,
) -> ElectionOutcome {
    let group_size = peers.iter().filter(|p| p.as_str() != self_addr).count() + 1;
    let need = majority(group_size);

    // Round 1: probe. Learn epochs, find live leaders and better
    // candidates, and check reachability before disturbing anyone.
    let probed = probe_peers(peers, self_addr, timeout);
    let mut max_epoch = role.epoch();
    for p in &probed {
        max_epoch = max_epoch.max(p.epoch);
        if p.epoch > role.epoch() {
            role.observe_epoch(p.epoch, &p.leader_hint);
        }
    }
    // A peer that is itself a live leader: rejoin it. (Its hint names
    // itself; a follower's hint names a third party we may not reach —
    // only trust first-hand claims.)
    if let Some(leader) = probed
        .iter()
        .filter(|p| p.leader_live && p.leader_hint == p.addr)
        .max_by_key(|p| p.epoch)
    {
        role.observe_epoch(leader.epoch, &leader.addr);
        role.set_leader_hint(&leader.addr);
        return ElectionOutcome::FollowLeader {
            addr: leader.addr.clone(),
            epoch: leader.epoch,
        };
    }
    if probed.len() + 1 < need {
        return ElectionOutcome::NoQuorum;
    }
    // Defer to a strictly better-qualified reachable peer: voters would
    // refuse us, and the stagger avoids split-vote livelock.
    if probed
        .iter()
        .any(|p| (p.last_seq, p.addr.as_str()) > (my_seq, self_addr))
    {
        return ElectionOutcome::Standby;
    }

    // Round 2: candidacy at a fresh epoch.
    let new_epoch = max_epoch + 1;
    if !role.consider_vote(new_epoch, my_seq, self_addr, my_seq, self_addr) {
        // Our own vote this epoch is already spent (concurrent election
        // advanced the state under us).
        return ElectionOutcome::Standby;
    }
    let mut granted = 1; // self
    for p in &probed {
        // An unreachable peer mid-election simply counts as no vote.
        if let Ok(v) = vote_rpc(&p.addr, new_epoch, my_seq, self_addr, timeout) {
            if v.epoch > new_epoch {
                // Someone is already past us; their election wins.
                role.observe_epoch(v.epoch, &v.leader_hint);
                return ElectionOutcome::Standby;
            }
            if v.granted {
                granted += 1;
            }
        }
    }
    if granted >= need {
        role.become_leader(new_epoch);
        role.set_leader_hint(self_addr);
        ElectionOutcome::Won { epoch: new_epoch }
    } else {
        ElectionOutcome::Standby
    }
}

//! Deterministic, versioned binary wire format for every protocol
//! message in the tree — the serialization layer that lets the same
//! replica engines run behind a socket instead of a shared-memory queue.
//!
//! The in-process harnesses move messages *by value*: the `TestNet`
//! clones them across link FIFOs, the simulator passes them through its
//! event heap, the threaded runtime moves them through qc-channel slots.
//! None of that survives a process boundary. This module defines the
//! byte-level contract that does:
//!
//! * [`Codec`] — canonical binary encode/decode for a value. Encoding is
//!   a pure function of the value (no padding, no pointer identity, no
//!   platform dependence: all integers little-endian, multi-byte counts
//!   as minimal-length LEB128 varints), so two encodes of equal values
//!   produce identical bytes and `decode(encode(v)) == v` for every
//!   value — the round-trip property the codec proptests pin.
//! * [`DecodeError`] — decoding is **total**: corrupt, truncated or
//!   trailing bytes produce a typed error, never a panic. A replica
//!   must survive any byte sequence a broken or malicious peer sends.
//! * [Framing](self#framing) — a length-prefixed frame header
//!   ([`FRAME_MAGIC`], [`FRAME_VERSION`], payload length) so a stream
//!   transport can delimit messages and reject foreign or incompatible
//!   traffic before touching the payload.
//!
//! # The schema is the format specification
//!
//! The layout of every struct and enum on the wire is stated once, as a
//! row of the schema further down this file (the runtime's `Wire`
//! envelope: `crates/runtime/src/wire.rs`): `tag => Variant { field:
//! Type, … }` means the tag byte, then the fields in that order, each
//! in its type's encoding. [`wire_struct!`](crate::wire_struct) and
//! [`wire_enum!`](crate::wire_enum) generate both `encode` and `decode`
//! from the row, and a duplicate tag, a variant without a row or a field
//! that disagrees with the type's declaration fails the build.
//! Hand-written are only the rules the rows are made of — integers,
//! `bool`, `Option`, `Vec`, `Arc<[T]>`, tuples — and
//! `ApplierSnapshot<S>`, whose bounds the macros have no syntax for.
//!
//! Adding a message:
//!
//! 1. append a row to its enum's table with the next free tag;
//! 2. never renumber, reuse or reorder what is released — old peers
//!    would misread it;
//! 3. a change that is not an appended row is incompatible: bump
//!    [`FRAME_VERSION`];
//! 4. add the variant's golden row to `crates/core/tests/wire_golden.rs`
//!    (the test does not compile until it has one).
//!
//! # Framing
//!
//! Every frame on a stream transport is:
//!
//! | offset | size | field                                        |
//! |--------|------|----------------------------------------------|
//! | 0      | 2    | magic `0xC51D` (little-endian)               |
//! | 2      | 1    | format version (currently `1`)               |
//! | 3      | 1    | reserved, must be `0`                        |
//! | 4      | 4    | payload length in bytes (little-endian u32)  |
//! | 8      | len  | payload                                      |
//!
//! The payload of the runtime's transport frames is a shard-group topic
//! (`u16`) followed by one encoded `Wire` message; this module only
//! delimits the payload. [`read_frame`] parses incrementally: it
//! distinguishes "need more bytes" (`Ok(None)`) from "stream is garbage"
//! (`Err`), which is what lets a receiver accumulate partial frames in a
//! reusable buffer.
//!
//! # Examples
//!
//! ```
//! use onepaxos::wire::{decode_exact, encode_to_vec, Codec};
//! use onepaxos::{Command, NodeId, Op};
//!
//! let cmd = Command::new(NodeId(9), 7, Op::Put { key: 1, value: 2 });
//! let bytes = encode_to_vec(&cmd);
//! assert_eq!(decode_exact::<Command>(&bytes).unwrap(), cmd);
//! // Truncation is an error, not a panic.
//! assert!(decode_exact::<Command>(&bytes[..bytes.len() - 1]).is_err());
//! ```

use std::fmt;
use std::sync::Arc;

use crate::kv::KvSnapshot;
use crate::onepaxos::{self, AbandonRe, UtilityEntry, UtilityMsg};
use crate::rsm::{ApplierSnapshot, StateMachine};
use crate::types::{Ballot, Command, Instance, NodeId, Op, TxnId, TxnWrites};
use crate::{basic_paxos, mencius, multipaxos, twopc};

pub mod chunk;

pub use chunk::{Chunk, RecvBuf, SendQueue};

/// First two bytes of every frame, little-endian. Chosen to be unlikely
/// as the start of ASCII traffic accidentally pointed at a replica port.
pub const FRAME_MAGIC: u16 = 0xC51D;

/// Current wire-format version, bumped on any incompatible change to the
/// encodings below. A receiver refuses other versions outright
/// ([`DecodeError::BadVersion`]) instead of guessing.
pub const FRAME_VERSION: u8 = 1;

/// Size of the frame header preceding every payload.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a frame payload (16 MiB). Far above any real message
/// (the largest are batch commands of a few hundred entries), and small
/// enough that a corrupt length field cannot talk a receiver into a
/// multi-gigabyte allocation.
pub const MAX_FRAME: usize = 16 << 20;

// --------------------------------------------------------------------
// Errors
// --------------------------------------------------------------------

/// Why a byte sequence failed to decode. Every failure mode of the codec
/// is represented; none panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended in the middle of a value.
    Truncated,
    /// A frame started with bytes other than [`FRAME_MAGIC`].
    BadMagic(u16),
    /// A frame declared a version this build does not speak.
    BadVersion(u8),
    /// A frame's reserved byte was non-zero.
    BadReserved(u8),
    /// A frame declared a payload larger than [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// An enum discriminant no encoder produces. `what` names the type
    /// being decoded.
    BadTag {
        /// The type whose discriminant was invalid.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran past its maximum width (a u64 fits in 10 bytes).
    VarintOverflow,
    /// The value decoded cleanly but left unconsumed payload bytes —
    /// a length mismatch between sender and receiver.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated => f.write_str("input truncated mid-value"),
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadReserved(b) => write!(f, "non-zero reserved frame byte {b:#04x}"),
            DecodeError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_FRAME}-byte cap"
                )
            }
            DecodeError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            DecodeError::VarintOverflow => f.write_str("varint wider than 64 bits"),
            DecodeError::Trailing(n) => write!(f, "{n} unconsumed payload bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

// --------------------------------------------------------------------
// Reader
// --------------------------------------------------------------------

/// A bounds-checked cursor over the bytes being decoded. All reads
/// return [`DecodeError::Truncated`] instead of slicing out of range.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let end = self.pos.checked_add(2).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Reads an LEB128 varint of at most 64 bits.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::VarintOverflow);
            }
        }
    }

    /// Reads a length prefix (varint), bounds-checked against the bytes
    /// actually remaining so a corrupt length cannot drive a huge
    /// allocation before the inevitable [`DecodeError::Truncated`].
    pub fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }
}

/// Appends `v` as an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

// --------------------------------------------------------------------
// Codec trait + base impls
// --------------------------------------------------------------------

/// Canonical binary encoding of a value.
///
/// `encode` appends the value's bytes to `buf`; `decode` consumes exactly
/// the bytes `encode` produced and reconstructs an equal value. Encoding
/// is deterministic — equal values yield identical bytes — and decoding
/// is total: any byte sequence either decodes or returns a
/// [`DecodeError`].
pub trait Codec: Sized {
    /// Appends this value's canonical encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input or bytes no encoder
    /// produces.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes `v` into a fresh buffer.
pub fn encode_to_vec<T: Codec>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    buf
}

/// Decodes exactly one value from `bytes`, rejecting leftovers.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or unconsumed trailing
/// bytes.
pub fn decode_exact<T: Codec>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::Trailing(r.remaining()));
    }
    Ok(v)
}

impl Codec for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl Codec for u16 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u16()
    }
}

impl Codec for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = r.varint()?;
        u32::try_from(v).map_err(|_| DecodeError::VarintOverflow)
    }
}

impl Codec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.varint()
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Length is bounds-checked against the remaining bytes (every
        // element costs at least one), so a corrupt count cannot drive a
        // huge reservation.
        let n = r.len_prefix()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Throwaway element values for the single-allocation `Arc<[T]>` decode.
///
/// `Arc<[T]>` cannot be built incrementally the way a `Vec` can: the
/// only safe single-allocation construction is collecting an iterator of
/// **exactly** the promised length (std's `FromIterator` specialization
/// for exact-size iterators allocates the slice once). When an element
/// mid-slice fails to decode, the iterator still owes the remaining
/// elements before the error can surface; [`DecodeFill::filler`] supplies
/// those placeholders. They exist only inside the aborted decode — the
/// `Arc` is dropped and the caller sees the original [`DecodeError`] —
/// so any cheaply constructed value works.
pub trait DecodeFill {
    /// A cheap placeholder completing an aborted slice decode.
    fn filler() -> Self;
}

impl DecodeFill for u64 {
    fn filler() -> Self {
        0
    }
}

impl<A: DecodeFill, B: DecodeFill> DecodeFill for (A, B) {
    fn filler() -> Self {
        (A::filler(), B::filler())
    }
}

impl DecodeFill for Command {
    fn filler() -> Self {
        Command::noop(NodeId(0), 0)
    }
}

impl<T: Codec + DecodeFill> Codec for Arc<[T]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self.iter() {
            item.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Decode straight into the Arc's slice allocation: a
        // known-length iterator collects into `Arc<[T]>` with exactly
        // one allocation, where the old `Vec -> Arc` path paid a second
        // allocation plus an element-by-element move for every Batch /
        // MultiPut / TxnWrites payload crossing the wire.
        let n = r.len_prefix()?;
        let mut err = None;
        let out: Arc<[T]> = (0..n)
            .map(|_| {
                if err.is_some() {
                    return T::filler();
                }
                match T::decode(r) {
                    Ok(v) => v,
                    Err(e) => {
                        err = Some(e);
                        T::filler()
                    }
                }
            })
            .collect();
        match err {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

// --------------------------------------------------------------------
// Schema macros
// --------------------------------------------------------------------

/// Generates the [`Codec`] impl of a struct from its field list: fields
/// encode in the order written, each as its declared type, and `decode`
/// reads them back in the same order. One statement of the layout serves
/// both directions.
///
/// `wire_struct! { Name { field: Type, … } }` for a struct with named
/// fields, `wire_struct! { Name(Type) }` for a one-field tuple struct. A
/// field list that disagrees with the struct's declaration (a missing
/// field, a wrong type) does not compile.
#[macro_export]
macro_rules! wire_struct {
    // A tuple struct is a struct whose one field is named `0`.
    ($name:ident($ty:ty)) => {
        $crate::wire_struct! { $name { 0: $ty } }
    };
    ($name:ident { $($field:tt: $ty:ty),+ $(,)? }) => {
        impl $crate::wire::Codec for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(<$ty as $crate::wire::Codec>::encode(&self.$field, buf);)+
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::DecodeError> {
                Ok($name {
                    $($field: <$ty as $crate::wire::Codec>::decode(r)?,)+
                })
            }
        }
    };
}

/// Generates the [`Codec`] impl of an enum from one row per variant,
/// `tag => Variant { field: Type, … }`: the tag byte, then the fields in
/// the order written, each as its declared type. Both `encode` and
/// `decode` come from the same row, so a tag or a field order cannot
/// drift between them.
///
/// A unit variant is `tag => Variant`; a one-field tuple variant names
/// its payload for the generated code, `tag => Variant(name: Type)`. An
/// enum may take one type parameter, which must itself be [`Codec`]:
/// `wire_enum!(Envelope<M> as "Envelope" { … })`. The literal after `as`
/// is what [`DecodeError::BadTag`] reports as `what`.
///
/// ```
/// use onepaxos::wire::{decode_exact, encode_to_vec, DecodeError};
///
/// #[derive(Debug, PartialEq)]
/// enum Coin { Heads, Tails { spins: u64 } }
/// onepaxos::wire_enum!(Coin as "Coin" {
///     0 => Heads,
///     1 => Tails { spins: u64 },
/// });
/// assert_eq!(encode_to_vec(&Coin::Tails { spins: 3 }), [1, 3]);
/// let bad = DecodeError::BadTag { what: "Coin", tag: 2 };
/// assert_eq!(decode_exact::<Coin>(&[2]), Err(bad));
/// ```
///
/// The compiler checks the table: a variant without a row fails the
/// exhaustive `match` in `encode`, a row that disagrees with the enum's
/// declaration fails to construct the variant in `decode`, and two rows
/// with one tag are an error, not a dead arm:
///
/// ```compile_fail
/// #[derive(Debug, PartialEq)]
/// enum Coin { Heads, Tails }
/// onepaxos::wire_enum!(Coin as "Coin" {
///     0 => Heads,
///     0 => Tails,
/// });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($($name:ident)::+ $(<$param:ident>)? as $what:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident: $ty:ty),+ $(,)? })?
            $(($inner:ident: $inner_ty:ty))?
        ),+ $(,)?
    }) => {
        impl$(<$param: $crate::wire::Codec>)? $crate::wire::Codec for $($name)::+$(<$param>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$variant { $($($field,)+)? $(0: $inner,)? } => {
                        buf.push($tag);
                        $($(<$ty as $crate::wire::Codec>::encode($field, buf);)+)?
                        $(<$inner_ty as $crate::wire::Codec>::encode($inner, buf);)?
                    })+
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::DecodeError> {
                Ok(match r.u8()? {
                    $($tag => Self::$variant {
                        $($($field: <$ty as $crate::wire::Codec>::decode(r)?,)+)?
                        $(0: <$inner_ty as $crate::wire::Codec>::decode(r)?,)?
                    },)+
                    tag => return Err($crate::wire::DecodeError::BadTag { what: $what, tag }),
                })
            }
        }
    };
}

// --------------------------------------------------------------------
// The schema: every struct and enum on the wire, one row per variant
// --------------------------------------------------------------------

wire_struct! { NodeId(u16) }
wire_struct! { Ballot { round: u32, node: NodeId } }
wire_struct! { TxnId { coordinator: NodeId, seq: u64 } }

wire_enum!(Op as "Op" {
    0 => Noop,
    1 => Put { key: u64, value: u64 },
    2 => Get { key: u64 },
    3 => Batch(cmds: Arc<[Command]>),
    4 => MultiPut { writes: TxnWrites },
    5 => TxnPrepare { txn: TxnId, writes: TxnWrites },
    6 => TxnCommit { txn: TxnId, key: u64 },
    7 => TxnAbort { txn: TxnId, key: u64 },
    8 => TxnStatus { txn: TxnId, key: u64 },
    9 => Truncate { watermark: Instance },
});

wire_struct! { Command { client: NodeId, req_id: u64, op: Op } }

// Snapshots (catch-up transfer).

wire_struct! {
    KvSnapshot {
        map: Vec<(u64, u64)>,
        writes: u64,
        reads: u64,
        staged: Vec<(TxnId, TxnWrites)>,
        parked: Vec<(TxnId, TxnWrites)>,
        finished: Vec<(TxnId, bool)>,
        finished_floor: Vec<(NodeId, u64)>,
    }
}

// Hand-written: the field types are associated types of `S`, so the
// impl needs `where` bounds on them that `wire_struct!` has no syntax
// for — and one three-field struct does not earn it any.
impl<S: StateMachine> Codec for ApplierSnapshot<S>
where
    S::Snapshot: Codec,
    S::Output: Codec,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        self.watermark.encode(buf);
        self.state.encode(buf);
        self.sessions.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ApplierSnapshot {
            watermark: u64::decode(r)?,
            state: Codec::decode(r)?,
            sessions: Vec::decode(r)?,
        })
    }
}

// 1Paxos messages, including the embedded PaxosUtility.

wire_enum!(UtilityEntry as "onepaxos::UtilityEntry" {
    0 => LeaderChange { leader: NodeId, acceptor: NodeId },
    1 => AcceptorChange { by: NodeId, acceptor: NodeId, uncommitted: Vec<(Instance, Command)> },
});

wire_enum!(UtilityMsg as "onepaxos::UtilityMsg" {
    0 => Prepare { uinst: Instance, bal: Ballot },
    1 => Promise { uinst: Instance, bal: Ballot, accepted: Option<(Ballot, UtilityEntry)> },
    2 => PrepareNack { uinst: Instance, promised: Ballot },
    3 => Accept { uinst: Instance, bal: Ballot, entry: UtilityEntry },
    4 => AcceptNack { uinst: Instance, promised: Ballot },
    5 => Learn { uinst: Instance, bal: Ballot, entry: UtilityEntry },
    6 => Query { qid: u64, have: Instance },
    7 => QueryResp { qid: u64, entries: Vec<(Instance, UtilityEntry)> },
});

wire_enum!(AbandonRe as "onepaxos::AbandonRe" {
    0 => Prepare,
    1 => Accept,
});

wire_enum!(onepaxos::Msg as "onepaxos::Msg" {
    0 => Forward { cmd: Command },
    1 => PrepareReq { pn: Ballot, expect_fresh: bool },
    2 => PrepareResp { pn: Ballot, accepted: Vec<(Instance, Ballot, Command)> },
    3 => AcceptReq { inst: Instance, pn: Ballot, cmd: Command },
    4 => Abandon { hpn: Ballot, fresh: bool, re: AbandonRe },
    5 => Learn { inst: Instance, pn: Ballot, cmd: Command },
    6 => Utility(msg: UtilityMsg),
});

// Baseline protocol messages.

wire_enum!(multipaxos::Msg as "multipaxos::Msg" {
    0 => Forward { cmd: Command },
    1 => Prepare { bal: Ballot, from_inst: Instance },
    2 => Promise { bal: Ballot, accepted: Vec<(Instance, Ballot, Command)> },
    3 => PrepareNack { promised: Ballot },
    4 => Accept { bal: Ballot, inst: Instance, cmd: Command },
    5 => AcceptNack { promised: Ballot },
    6 => Learn { inst: Instance, bal: Ballot, cmd: Command },
    7 => Heartbeat { bal: Ballot },
});

wire_enum!(twopc::Msg as "twopc::Msg" {
    0 => Forward { cmd: Command },
    1 => Prepare { round: Instance, cmd: Command },
    2 => Ack { round: Instance },
    3 => Nack { round: Instance },
    4 => Commit { round: Instance, cmd: Command },
    5 => CommitAck { round: Instance },
    6 => Rollback { round: Instance },
});

wire_enum!(mencius::Msg as "mencius::Msg" {
    0 => Accept { inst: Instance, cmd: Command },
    1 => Learn { inst: Instance, cmd: Command },
});

wire_enum!(basic_paxos::Msg as "basic_paxos::Msg" {
    0 => Forward { cmd: Command },
    1 => Prepare { inst: Instance, bal: Ballot },
    2 => Promise { inst: Instance, bal: Ballot, accepted: Option<(Ballot, Command)> },
    3 => PrepareNack { inst: Instance, promised: Ballot },
    4 => Accept { inst: Instance, bal: Ballot, cmd: Command },
    5 => AcceptNack { inst: Instance, promised: Ballot },
    6 => Learn { inst: Instance, bal: Ballot, cmd: Command },
});

// --------------------------------------------------------------------
// Framing
// --------------------------------------------------------------------

/// Appends one complete frame — header plus `payload` — to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME`]; no message in the tree
/// comes within orders of magnitude of the cap, so an oversized payload
/// is a logic error at the call site, not a runtime condition.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME,
        "frame payload of {} bytes exceeds MAX_FRAME",
        payload.len()
    );
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(FRAME_VERSION);
    out.push(0); // reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes `msg` directly into `out` as one frame, patching the length
/// field after the payload is written — the zero-copy path transports
/// use (no intermediate payload buffer).
pub fn write_frame_with(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(FRAME_VERSION);
    out.push(0); // reserved
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    write_payload(out);
    let len = out.len() - len_at - 4;
    assert!(
        len <= MAX_FRAME,
        "frame payload of {len} bytes exceeds MAX_FRAME"
    );
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Attempts to parse one frame from the start of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a partial frame (read more
/// bytes and retry), or `Ok(Some((payload, consumed)))` where `consumed`
/// covers the header and payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the bytes can never become a valid
/// frame: wrong magic, unsupported version, non-zero reserved byte, or a
/// length above [`MAX_FRAME`]. A stream receiver should drop the
/// connection — there is no way to resynchronise a corrupt framed
/// stream.
pub fn read_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, DecodeError> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let magic = u16::from_le_bytes([buf[0], buf[1]]);
    if magic != FRAME_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if buf[2] != FRAME_VERSION {
        return Err(DecodeError::BadVersion(buf[2]));
    }
    if buf[3] != 0 {
        return Err(DecodeError::BadReserved(buf[3]));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len as usize > MAX_FRAME {
        return Err(DecodeError::FrameTooLarge(len));
    }
    let total = FRAME_HEADER + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[FRAME_HEADER..total], total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onepaxos::Msg as OnePaxosMsg;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_exact::<T>(&bytes).unwrap(), v, "bytes {bytes:?}");
    }

    #[test]
    fn primitives_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            round_trip(v);
        }
        round_trip(NodeId(0xFFFF));
        round_trip(Ballot::new(u32::MAX, NodeId(3)));
        round_trip(TxnId::new(NodeId(9), u64::MAX));
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn varint_is_minimal_and_compact() {
        // Values below 128 take one byte — the common case (small keys,
        // request ids, instances) stays compact on the wire.
        assert_eq!(encode_to_vec(&5u64).len(), 1);
        assert_eq!(encode_to_vec(&127u64).len(), 1);
        assert_eq!(encode_to_vec(&128u64).len(), 2);
        assert_eq!(encode_to_vec(&u64::MAX).len(), 10);
    }

    #[test]
    fn every_op_variant_round_trips() {
        let ops = [
            Op::Noop,
            Op::Put { key: 1, value: 2 },
            Op::Get { key: u64::MAX },
            Op::Batch(
                vec![
                    Command::noop(NodeId(3), 1),
                    Command::new(NodeId(4), 9, Op::Put { key: 8, value: 9 }),
                ]
                .into(),
            ),
            Op::MultiPut {
                writes: vec![(1, 2), (3, 4)].into(),
            },
            Op::TxnPrepare {
                txn: TxnId::new(NodeId(7), 3),
                writes: vec![(5, 6)].into(),
            },
            Op::TxnCommit {
                txn: TxnId::new(NodeId(7), 3),
                key: 5,
            },
            Op::TxnAbort {
                txn: TxnId::new(NodeId(7), 4),
                key: 6,
            },
            Op::TxnStatus {
                txn: TxnId::new(NodeId(7), 5),
                key: 7,
            },
            Op::Truncate {
                watermark: u64::MAX,
            },
        ];
        for op in ops {
            round_trip(op);
        }
    }

    #[test]
    fn onepaxos_messages_round_trip() {
        let msgs = [
            OnePaxosMsg::Forward {
                cmd: Command::noop(NodeId(9), 1),
            },
            OnePaxosMsg::PrepareReq {
                pn: Ballot::new(3, NodeId(1)),
                expect_fresh: true,
            },
            OnePaxosMsg::PrepareResp {
                pn: Ballot::new(3, NodeId(1)),
                accepted: vec![(7, Ballot::new(2, NodeId(0)), Command::noop(NodeId(8), 2))],
            },
            OnePaxosMsg::AcceptReq {
                inst: 12,
                pn: Ballot::new(3, NodeId(1)),
                cmd: Command::new(NodeId(8), 3, Op::Put { key: 1, value: 2 }),
            },
            OnePaxosMsg::Abandon {
                hpn: Ballot::new(9, NodeId(2)),
                fresh: false,
                re: AbandonRe::Accept,
            },
            OnePaxosMsg::Learn {
                inst: 12,
                pn: Ballot::new(3, NodeId(1)),
                cmd: Command::noop(NodeId(8), 3),
            },
            OnePaxosMsg::Utility(UtilityMsg::QueryResp {
                qid: 77,
                entries: vec![(
                    1,
                    UtilityEntry::AcceptorChange {
                        by: NodeId(0),
                        acceptor: NodeId(2),
                        uncommitted: vec![(3, Command::noop(NodeId(9), 1))],
                    },
                )],
            }),
        ];
        for m in msgs {
            round_trip(m);
        }
    }

    #[test]
    fn truncation_errors_cleanly_at_every_length() {
        let msg = OnePaxosMsg::AcceptReq {
            inst: 300,
            pn: Ballot::new(2, NodeId(1)),
            cmd: Command::new(
                NodeId(8),
                3,
                Op::Batch(vec![Command::noop(NodeId(9), 500)].into()),
            ),
        };
        let bytes = encode_to_vec(&msg);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<OnePaxosMsg>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Op::Noop);
        bytes.push(0xAB);
        assert_eq!(decode_exact::<Op>(&bytes), Err(DecodeError::Trailing(1)));
    }

    #[test]
    fn bad_tag_names_the_type() {
        fn what<T: Codec + fmt::Debug>() -> &'static str {
            match decode_exact::<T>(&[0xFF]) {
                Err(DecodeError::BadTag { what, tag: 0xFF }) => what,
                other => panic!("expected BadTag(0xFF), got {other:?}"),
            }
        }
        assert_eq!(what::<Op>(), "Op");
        assert_eq!(what::<UtilityEntry>(), "onepaxos::UtilityEntry");
        assert_eq!(what::<UtilityMsg>(), "onepaxos::UtilityMsg");
        assert_eq!(what::<AbandonRe>(), "onepaxos::AbandonRe");
        assert_eq!(what::<OnePaxosMsg>(), "onepaxos::Msg");
        assert_eq!(what::<multipaxos::Msg>(), "multipaxos::Msg");
        assert_eq!(what::<twopc::Msg>(), "twopc::Msg");
        assert_eq!(what::<mencius::Msg>(), "mencius::Msg");
        assert_eq!(what::<basic_paxos::Msg>(), "basic_paxos::Msg");
    }

    #[test]
    fn frame_round_trip_and_partials() {
        let mut out = Vec::new();
        write_frame(&mut out, b"hello");
        // Partial header, partial payload: need more bytes, not an error.
        for cut in 0..out.len() {
            assert_eq!(read_frame(&out[..cut]).unwrap(), None, "cut {cut}");
        }
        let (payload, consumed) = read_frame(&out).unwrap().unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(consumed, out.len());
        // Two frames back to back parse one at a time.
        write_frame(&mut out, b"world");
        let (p1, c1) = read_frame(&out).unwrap().unwrap();
        assert_eq!(p1, b"hello");
        let (p2, c2) = read_frame(&out[c1..]).unwrap().unwrap();
        assert_eq!(p2, b"world");
        assert_eq!(c1 + c2, out.len());
    }

    #[test]
    fn frame_rejects_foreign_traffic() {
        assert_eq!(
            read_frame(b"GET / HTTP/1.1\r\n"),
            Err(DecodeError::BadMagic(u16::from_le_bytes([b'G', b'E'])))
        );
        let mut bad_version = Vec::new();
        write_frame(&mut bad_version, b"x");
        bad_version[2] = 99;
        assert_eq!(read_frame(&bad_version), Err(DecodeError::BadVersion(99)));
        let mut bad_reserved = Vec::new();
        write_frame(&mut bad_reserved, b"x");
        bad_reserved[3] = 1;
        assert_eq!(read_frame(&bad_reserved), Err(DecodeError::BadReserved(1)));
        let mut huge = Vec::new();
        write_frame(&mut huge, b"x");
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&huge), Err(DecodeError::FrameTooLarge(u32::MAX)));
    }

    #[test]
    fn write_frame_with_patches_length_in_place() {
        let mut out = Vec::new();
        write_frame_with(&mut out, |buf| {
            Command::noop(NodeId(1), 2).encode(buf);
        });
        let (payload, consumed) = read_frame(&out).unwrap().unwrap();
        assert_eq!(consumed, out.len());
        assert_eq!(
            decode_exact::<Command>(payload).unwrap(),
            Command::noop(NodeId(1), 2)
        );
    }

    #[test]
    fn corrupt_length_cannot_over_allocate() {
        // A Vec length prefix claiming more elements than bytes remain
        // must fail before allocating.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        assert_eq!(
            decode_exact::<Vec<u64>>(&bytes),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn decode_error_display_is_informative() {
        let e: Box<dyn std::error::Error> = Box::new(DecodeError::BadVersion(9));
        assert!(e.to_string().contains("version 9"));
        assert!(DecodeError::BadTag {
            what: "Op",
            tag: 0xFF
        }
        .to_string()
        .contains("Op"));
    }
}

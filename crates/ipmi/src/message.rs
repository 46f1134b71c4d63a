//! IPMI message framing.
//!
//! A simplified LAN frame: `[netfn, cmd, seq, len, payload…, checksum]`.
//! The checksum is the IPMI two's-complement checksum over everything
//! before it. Responses carry a completion code ahead of their payload.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Network function codes (request variants; responses are `netfn | 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NetFn {
    /// Chassis (power control).
    Chassis = 0x00,
    /// Sensor/Event.
    Sensor = 0x04,
    /// Application (Get Device ID etc.).
    App = 0x06,
    /// Group extension — DCMI lives here (0x2C).
    GroupExt = 0x2c,
}

impl NetFn {
    pub fn from_u8(v: u8) -> Option<NetFn> {
        match v & !1 {
            0x00 => Some(NetFn::Chassis),
            0x04 => Some(NetFn::Sensor),
            0x06 => Some(NetFn::App),
            0x2c => Some(NetFn::GroupExt),
            _ => None,
        }
    }
}

/// IPMI completion codes (subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CompletionCode {
    Ok = 0x00,
    NodeBusy = 0xc0,
    InvalidCommand = 0xc1,
    RequestDataLengthInvalid = 0xc7,
    ParameterOutOfRange = 0xc9,
    DestinationUnavailable = 0xd3,
    UnspecifiedError = 0xff,
}

impl CompletionCode {
    pub fn from_u8(v: u8) -> CompletionCode {
        match v {
            0x00 => CompletionCode::Ok,
            0xc0 => CompletionCode::NodeBusy,
            0xc1 => CompletionCode::InvalidCommand,
            0xc7 => CompletionCode::RequestDataLengthInvalid,
            0xc9 => CompletionCode::ParameterOutOfRange,
            0xd3 => CompletionCode::DestinationUnavailable,
            _ => CompletionCode::UnspecifiedError,
        }
    }
}

/// Errors surfaced while encoding/decoding or transporting messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpmiError {
    /// Frame too short or length field inconsistent.
    Truncated,
    /// Checksum mismatch.
    BadChecksum,
    /// Unknown NetFn.
    UnknownNetFn(u8),
    /// A response arrived with a non-OK completion code.
    Completion(CompletionCode),
    /// The peer hung up.
    ChannelClosed,
    /// Payload didn't parse as the expected command structure.
    Malformed(&'static str),
    /// The transport dropped the frame before delivery (fault injection
    /// or a lossy management network).
    Dropped,
    /// A frame arrived damaged on a faulty link (detected by checksum at
    /// the receiving end).
    Corrupt,
    /// No matching response arrived within the transaction's wait budget.
    TimedOut,
}

impl fmt::Display for IpmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpmiError::Truncated => write!(f, "truncated IPMI frame"),
            IpmiError::BadChecksum => write!(f, "IPMI checksum mismatch"),
            IpmiError::UnknownNetFn(v) => write!(f, "unknown NetFn {v:#x}"),
            IpmiError::Completion(c) => write!(f, "completion code {c:?}"),
            IpmiError::ChannelClosed => write!(f, "management channel closed"),
            IpmiError::Malformed(what) => write!(f, "malformed payload: {what}"),
            IpmiError::Dropped => write!(f, "frame dropped in transit"),
            IpmiError::Corrupt => write!(f, "frame corrupted in transit"),
            IpmiError::TimedOut => write!(f, "transaction timed out"),
        }
    }
}

impl IpmiError {
    /// True for failures a retry might cure — lost, damaged or late
    /// frames and busy peers. Protocol violations and a closed channel
    /// are final.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IpmiError::Dropped
                | IpmiError::Corrupt
                | IpmiError::TimedOut
                | IpmiError::BadChecksum
                | IpmiError::Completion(CompletionCode::NodeBusy)
        )
    }
}

impl std::error::Error for IpmiError {}

/// IPMI two's-complement checksum: sum of all bytes plus checksum ≡ 0.
pub fn checksum(data: &[u8]) -> u8 {
    let sum: u8 = data.iter().fold(0u8, |a, &b| a.wrapping_add(b));
    sum.wrapping_neg()
}

/// An IPMI request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub netfn: NetFn,
    pub cmd: u8,
    pub seq: u8,
    pub payload: Bytes,
}

impl Request {
    pub fn new(netfn: NetFn, cmd: u8, seq: u8, payload: impl Into<Bytes>) -> Self {
        Request { netfn, cmd, seq, payload: payload.into() }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(5 + self.payload.len());
        b.put_u8(self.netfn as u8);
        b.put_u8(self.cmd);
        b.put_u8(self.seq);
        b.put_u8(self.payload.len() as u8);
        b.put_slice(&self.payload);
        let ck = checksum(&b);
        b.put_u8(ck);
        b.freeze()
    }

    /// Parse from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Request, IpmiError> {
        if buf.len() < 5 {
            return Err(IpmiError::Truncated);
        }
        let len = buf[3] as usize;
        if buf.len() != 5 + len {
            return Err(IpmiError::Truncated);
        }
        if checksum(&buf[..buf.len() - 1]) != buf[buf.len() - 1] {
            return Err(IpmiError::BadChecksum);
        }
        let netfn = NetFn::from_u8(buf[0]).ok_or(IpmiError::UnknownNetFn(buf[0]))?;
        Ok(Request {
            netfn,
            cmd: buf[1],
            seq: buf[2],
            payload: Bytes::copy_from_slice(&buf[4..4 + len]),
        })
    }
}

/// An IPMI response frame (NetFn is the request's +1 on the wire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub netfn: NetFn,
    pub cmd: u8,
    pub seq: u8,
    pub completion: CompletionCode,
    pub payload: Bytes,
}

impl Response {
    pub fn ok(req: &Request, payload: impl Into<Bytes>) -> Self {
        Response {
            netfn: req.netfn,
            cmd: req.cmd,
            seq: req.seq,
            completion: CompletionCode::Ok,
            payload: payload.into(),
        }
    }

    pub fn err(req: &Request, completion: CompletionCode) -> Self {
        Response { netfn: req.netfn, cmd: req.cmd, seq: req.seq, completion, payload: Bytes::new() }
    }

    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(6 + self.payload.len());
        b.put_u8(self.netfn as u8 | 1);
        b.put_u8(self.cmd);
        b.put_u8(self.seq);
        b.put_u8(self.completion as u8);
        b.put_u8(self.payload.len() as u8);
        b.put_slice(&self.payload);
        let ck = checksum(&b);
        b.put_u8(ck);
        b.freeze()
    }

    pub fn decode(buf: &[u8]) -> Result<Response, IpmiError> {
        if buf.len() < 6 {
            return Err(IpmiError::Truncated);
        }
        let len = buf[4] as usize;
        if buf.len() != 6 + len {
            return Err(IpmiError::Truncated);
        }
        if checksum(&buf[..buf.len() - 1]) != buf[buf.len() - 1] {
            return Err(IpmiError::BadChecksum);
        }
        let netfn = NetFn::from_u8(buf[0]).ok_or(IpmiError::UnknownNetFn(buf[0]))?;
        Ok(Response {
            netfn,
            cmd: buf[1],
            seq: buf[2],
            completion: CompletionCode::from_u8(buf[3]),
            payload: Bytes::copy_from_slice(&buf[5..5 + len]),
        })
    }

    /// True when this is the answer to `req`: sequence number, NetFn *and*
    /// command all match. A late response to an earlier request — even one
    /// whose 8-bit sequence number has wrapped onto `req.seq` — fails the
    /// match and must be discarded.
    pub fn answers(&self, req: &Request) -> bool {
        self.seq == req.seq && self.cmd == req.cmd && self.netfn == req.netfn
    }

    /// Return the payload if the completion code is OK, else an error.
    pub fn into_ok(self) -> Result<Bytes, IpmiError> {
        if self.completion == CompletionCode::Ok {
            Ok(self.payload)
        } else {
            Err(IpmiError::Completion(self.completion))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request::new(NetFn::GroupExt, 0x02, 7, vec![0xdc, 0x01]);
        let d = Request::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn response_roundtrip_with_completion() {
        let req = Request::new(NetFn::App, 0x01, 3, Bytes::new());
        let resp = Response::err(&req, CompletionCode::InvalidCommand);
        let d = Response::decode(&resp.encode()).unwrap();
        assert_eq!(d.completion, CompletionCode::InvalidCommand);
        assert_eq!(d.seq, 3);
        assert!(d.into_ok().is_err());
    }

    #[test]
    fn a_response_answers_only_its_own_request() {
        let req = Request::new(NetFn::GroupExt, 0x02, 9, Bytes::new());
        let resp = Response::ok(&req, Bytes::new());
        assert!(resp.answers(&req));
        assert!(!Response { seq: 10, ..resp.clone() }.answers(&req), "seq mismatch");
        assert!(!Response { cmd: 0x03, ..resp.clone() }.answers(&req), "cmd mismatch");
        assert!(!Response { netfn: NetFn::App, ..resp }.answers(&req), "netfn mismatch");
    }

    #[test]
    fn corrupted_frame_fails_checksum() {
        let r = Request::new(NetFn::Sensor, 0x2d, 1, vec![0x10]);
        let mut bytes = r.encode().to_vec();
        bytes[4] ^= 0xff;
        assert_eq!(Request::decode(&bytes), Err(IpmiError::BadChecksum));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let r = Request::new(NetFn::Chassis, 0x00, 0, vec![1, 2, 3]);
        let bytes = r.encode();
        assert_eq!(Request::decode(&bytes[..4]), Err(IpmiError::Truncated));
        assert_eq!(Request::decode(&bytes[..bytes.len() - 1]), Err(IpmiError::Truncated));
    }

    #[test]
    fn response_netfn_has_lsb_set_on_wire() {
        let req = Request::new(NetFn::GroupExt, 0x02, 0, Bytes::new());
        let bytes = Response::ok(&req, Bytes::new()).encode();
        assert_eq!(bytes[0], 0x2c | 1);
    }

    #[test]
    fn unknown_netfn_is_reported() {
        let r = Request::new(NetFn::App, 0x01, 0, Bytes::new());
        let mut bytes = r.encode().to_vec();
        bytes[0] = 0x42;
        let last = bytes.len() - 1;
        bytes[last] = checksum(&bytes[..last]);
        assert_eq!(Request::decode(&bytes), Err(IpmiError::UnknownNetFn(0x42)));
    }

    #[test]
    fn checksum_sums_to_zero() {
        let data = [1u8, 2, 3, 0x80, 0xff];
        let ck = checksum(&data);
        let total = data.iter().fold(ck, |a, &b| a.wrapping_add(b));
        assert_eq!(total, 0);
    }
}

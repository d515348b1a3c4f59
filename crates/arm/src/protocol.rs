//! The Jetson ↔ Arduino serial wire protocol (Sec. IV-A7).
//!
//! Frame layout: `0xAA | len | cmd | payload… | checksum`, where `len`
//! counts `cmd + payload` bytes and the checksum is the XOR of everything
//! after the start byte. The decoder is a resynchronizing state machine:
//! garbage between frames (line noise on a real UART) is skipped.

use serde::{Deserialize, Serialize};

use crate::{ArmError, Result};

/// Frame start byte.
pub const START: u8 = 0xAA;

/// Commands understood by the MCU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Set one servo's target angle, in decidegrees offset by 900
    /// (so −90.0° → 0, +90.0° → 1800; fits u16 for all joints).
    SetServo {
        /// Servo id (0 = lift, 1 = wrist, 2–4 = fingers).
        id: u8,
        /// Angle in decidegrees + 900.
        decideg: u16,
    },
    /// Liveness probe; the MCU answers with [`Command::Ack`].
    Ping,
    /// Acknowledgement (MCU → Jetson).
    Ack,
    /// Relax all servos (watchdog/safety action).
    Relax,
}

impl Command {
    fn opcode(self) -> u8 {
        match self {
            Command::SetServo { .. } => 0x01,
            Command::Ping => 0x02,
            Command::Ack => 0x03,
            Command::Relax => 0x04,
        }
    }

    /// Encodes an angle in degrees to the wire format.
    #[must_use]
    pub fn encode_angle(deg: f64) -> u16 {
        ((deg * 10.0).round() + 900.0).clamp(0.0, u16::MAX as f64) as u16
    }

    /// Decodes a wire angle back to degrees.
    #[must_use]
    pub fn decode_angle(wire: u16) -> f64 {
        (f64::from(wire) - 900.0) / 10.0
    }
}

/// Serializes a command into a framed packet.
#[must_use]
pub fn encode(cmd: Command) -> Vec<u8> {
    let mut frame = Vec::with_capacity(7);
    encode_into(cmd, &mut frame);
    frame
}

/// [`encode`] appending to a reused buffer — the allocation-free serving
/// path (the payload is assembled on the stack and a warm buffer never
/// reallocates; frames are ≤ 7 bytes). Emits byte-identical frames.
pub fn encode_into(cmd: Command, out: &mut Vec<u8>) {
    let mut payload = [0u8; 4];
    payload[0] = cmd.opcode();
    let len = if let Command::SetServo { id, decideg } = cmd {
        payload[1] = id;
        // Wire order is big-endian.
        payload[2..4].copy_from_slice(&decideg.to_be_bytes());
        4
    } else {
        1
    };
    let payload = &payload[..len];
    out.push(START);
    out.push(len as u8);
    out.extend_from_slice(payload);
    let checksum = payload.iter().fold(len as u8, |acc, b| acc ^ b);
    out.push(checksum);
}

/// Streaming decoder that survives garbage and split frames.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Frames dropped due to bad checksum/opcode (diagnostics).
    pub errors: u64,
}

impl Decoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds received bytes; returns every complete command decoded.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<Command> {
        let mut out = Vec::new();
        self.feed_each(bytes, |cmd| out.push(cmd));
        out
    }

    /// [`Decoder::feed`] delivering each decoded command to a visitor —
    /// the allocation-free serving path (frames parse in place; no
    /// per-frame payload copy, no output vector). Same state machine,
    /// same resynchronization, same command order.
    pub fn feed_each(&mut self, bytes: &[u8], mut f: impl FnMut(Command)) {
        self.buf.extend_from_slice(bytes);
        loop {
            // Resync to the next start byte.
            match self.buf.iter().position(|&b| b == START) {
                Some(p) if p > 0 => {
                    self.buf.drain(..p);
                }
                None => {
                    self.buf.clear();
                    return;
                }
                _ => {}
            }
            if self.buf.len() < 3 {
                return;
            }
            let len = self.buf[1] as usize;
            if len == 0 || len > 16 {
                // Implausible length: drop the start byte and resync.
                self.errors += 1;
                self.buf.drain(..1);
                continue;
            }
            if self.buf.len() < 2 + len + 1 {
                return; // wait for more bytes
            }
            let payload = &self.buf[2..2 + len];
            let checksum = self.buf[2 + len];
            let computed = payload.iter().fold(len as u8, |acc, b| acc ^ b);
            if checksum != computed {
                self.errors += 1;
                self.buf.drain(..1); // resync inside the bad frame
                continue;
            }
            let parsed = Self::parse(payload);
            self.buf.drain(..2 + len + 1);
            match parsed {
                Ok(cmd) => f(cmd),
                Err(_) => self.errors += 1,
            }
        }
    }

    fn parse(payload: &[u8]) -> Result<Command> {
        match payload {
            [0x01, id, hi, lo] => Ok(Command::SetServo {
                id: *id,
                decideg: u16::from_be_bytes([*hi, *lo]),
            }),
            [0x02] => Ok(Command::Ping),
            [0x03] => Ok(Command::Ack),
            [0x04] => Ok(Command::Relax),
            _ => Err(ArmError::BadPacket("unknown opcode or length")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_commands() {
        let cmds = [
            Command::SetServo {
                id: 2,
                decideg: 1234,
            },
            Command::Ping,
            Command::Ack,
            Command::Relax,
        ];
        let mut decoder = Decoder::new();
        for cmd in cmds {
            let got = decoder.feed(&encode(cmd));
            assert_eq!(got, vec![cmd]);
        }
        assert_eq!(decoder.errors, 0);
    }

    #[test]
    fn angle_encoding_roundtrips() {
        for deg in [-90.0, -45.5, 0.0, 13.7, 90.0, 120.0] {
            let wire = Command::encode_angle(deg);
            assert!((Command::decode_angle(wire) - deg).abs() < 0.051);
        }
    }

    #[test]
    fn split_frames_reassemble() {
        let frame = encode(Command::SetServo {
            id: 1,
            decideg: 900,
        });
        let mut decoder = Decoder::new();
        let (a, b) = frame.split_at(3);
        assert!(decoder.feed(a).is_empty());
        let got = decoder.feed(b);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let mut stream = vec![0x00, 0x13, 0x37];
        stream.extend(encode(Command::Ping));
        stream.extend([0xFF, 0xFE]);
        stream.extend(encode(Command::Relax));
        let mut decoder = Decoder::new();
        let got = decoder.feed(&stream);
        assert_eq!(got, vec![Command::Ping, Command::Relax]);
    }

    #[test]
    fn corrupted_checksum_is_dropped_then_resyncs() {
        let mut bad = encode(Command::Ping);
        *bad.last_mut().unwrap() ^= 0x55;
        let mut stream = bad;
        stream.extend(encode(Command::Ack));
        let mut decoder = Decoder::new();
        let got = decoder.feed(&stream);
        assert_eq!(got, vec![Command::Ack]);
        assert!(decoder.errors >= 1);
    }

    #[test]
    fn many_frames_in_one_read() {
        let mut stream = Vec::new();
        for i in 0..10u8 {
            stream.extend(encode(Command::SetServo {
                id: i % 5,
                decideg: 900 + u16::from(i),
            }));
        }
        let mut decoder = Decoder::new();
        assert_eq!(decoder.feed(&stream).len(), 10);
    }
}

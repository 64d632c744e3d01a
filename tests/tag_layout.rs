//! Exhaustive round-trip and bit-layout pinning for the fabric routing
//! tags. Every flit in the cycle fabric carries its packet's routing
//! state in [`Flit::tag`]; the per-kind link counters, the per-hop VC
//! switching, and the class split all decode from these bits, so the
//! layout is load-bearing: bits 0–2 dimension-order index, bit 3 base
//! VC, bit 4 dateline-crossed, bit 5 channel slice, bit 6 response-class
//! marker, bits 7–8 the [`ByteKind`] counter index. This sweep pins
//! that layout numerically over **all** (order, vc, crossed, slice,
//! kind) combinations so any re-encoding shows up as a test diff, not a
//! silent corruption of routing state.
//!
//! [`Flit::tag`]: anton3::net::router::Flit::tag

use anton3::net::channel::ByteKind;
use anton3::net::fabric3d::{
    decode_tag, encode_request_tag, encode_response_tag, TrafficClass, SLICES,
};
use std::collections::HashSet;

#[test]
fn request_tags_roundtrip_exhaustively_and_pin_the_bit_layout() {
    let mut seen = HashSet::new();
    for order in 0..6usize {
        for vc in 0..2u8 {
            for crossed in [false, true] {
                for slice in 0..SLICES {
                    for kind in ByteKind::ALL {
                        let tag = encode_request_tag(order, vc, crossed, slice, kind);
                        // Pin the exact bit layout.
                        let expect = order as u16
                            | (vc as u16) << 3
                            | (crossed as u16) << 4
                            | (slice as u16) << 5
                            | (kind.index() as u16) << 7;
                        assert_eq!(
                            tag, expect,
                            "layout drifted for {order}/{vc}/{crossed}/{slice}/{kind:?}"
                        );
                        assert_eq!(tag & (1 << 6), 0, "request tags never set the response bit");
                        // Round-trip every field.
                        let t = decode_tag(tag);
                        assert_eq!(t.class, TrafficClass::Request);
                        assert_eq!(
                            (t.order_idx, t.base_vc, t.crossed, t.slice, t.kind),
                            (order, vc, crossed, slice, kind)
                        );
                        assert!(seen.insert(tag), "tag {tag:#x} double-encoded");
                    }
                }
            }
        }
    }
    // 6 orders x 2 VCs x 2 crossed x 2 slices x 3 kinds, all distinct.
    assert_eq!(seen.len(), 6 * 2 * 2 * 2 * 3);
}

#[test]
fn response_tags_roundtrip_exhaustively_and_stay_disjoint_from_requests() {
    let mut seen = HashSet::new();
    for slice in 0..SLICES {
        for kind in ByteKind::ALL {
            let tag = encode_response_tag(slice, kind);
            let expect = 1u16 << 6 | (slice as u16) << 5 | (kind.index() as u16) << 7;
            assert_eq!(tag, expect, "layout drifted for response {slice}/{kind:?}");
            let t = decode_tag(tag);
            assert_eq!(t.class, TrafficClass::Response);
            assert_eq!((t.slice, t.kind), (slice, kind));
            assert!(!t.crossed, "responses never cross datelines");
            assert!(seen.insert(tag));
        }
    }
    assert_eq!(seen.len(), 2 * 3);
    // The class spaces cannot collide: bit 6 separates them.
    for order in 0..6 {
        for vc in 0..2u8 {
            for crossed in [false, true] {
                for slice in 0..SLICES {
                    for kind in ByteKind::ALL {
                        let req = encode_request_tag(order, vc, crossed, slice, kind);
                        assert!(
                            !seen.contains(&req),
                            "request tag {req:#x} collides with a response tag"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn flit_is_packet_identity_plus_routing_state() {
    // `packet` (8 B) + `dest` (4 B) + `tag` (2 B) + `index`, `of`, `vc`
    // (1 B each), padded to the u64 alignment: no timestamp rides along.
    // Every queued, in-flight and delivered flit pays this size.
    assert_eq!(std::mem::size_of::<anton3::net::router::Flit>(), 24);
}

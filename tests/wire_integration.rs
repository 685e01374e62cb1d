//! Cross-crate integration: the control information a real server
//! broadcasts survives the wire codec bit-exactly.

#![allow(clippy::unwrap_used, reason = "tests are exempt from library lints")]
use bpush_broadcast::wire::{
    decode_augmented, decode_diff, decode_invalidation, encode_augmented, encode_diff,
    encode_invalidation, WireParams,
};
use bpush_types::Granularity;

/// End to end: the control information a real server broadcasts survives
/// the wire.
#[test]
fn server_control_info_round_trips() {
    use bpush_server::{BroadcastServer, ServerOptions};
    let config = bpush_types::ServerConfig {
        broadcast_size: 200,
        update_range: 100,
        server_read_range: 200,
        updates_per_cycle: 15,
        txns_per_cycle: 8,
        ..bpush_types::ServerConfig::default()
    };
    let wire = WireParams::derive(200, 1, 8, 16);
    let mut server = BroadcastServer::new(config, ServerOptions::sgt(), 5).unwrap();
    for _ in 0..6 {
        let bcast = server.run_cycle();
        let ctrl = bcast.control();
        let n = ctrl.cycle();

        let inv_bytes = encode_invalidation(ctrl.invalidation(), wire);
        let inv = decode_invalidation(&inv_bytes, wire, n, 1, Granularity::Item, 1).unwrap();
        assert_eq!(&inv, ctrl.invalidation());

        if let Some(aug) = ctrl.augmented() {
            let bytes = encode_augmented(aug, n, wire);
            assert_eq!(&decode_augmented(&bytes, wire, n).unwrap(), aug);
        }
        if let Some(diff) = ctrl.graph_diff() {
            let bytes = encode_diff(diff, n, wire);
            assert_eq!(&decode_diff(&bytes, wire, n).unwrap(), diff);
        }
    }
}

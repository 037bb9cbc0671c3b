//! The gateway routes nodes by the same rule a serve node routes shards:
//! weighted rendezvous, defined once in [`offloadnn_serve::router`].

pub use offloadnn_serve::router::*;

//! The workspace root package. It holds no code of its own: it is the
//! host of the cross-crate integration tests under `tests/`.

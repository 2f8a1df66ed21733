//! Offline stand-in for `parking_lot`: `samr-engine` declares the dependency but uses no item of it.

//! Typed identifiers for the entities of the TTW system model.
//!
//! Each identifier is a thin index newtype ([C-NEWTYPE]) that is only
//! meaningful for the [`crate::System`] that created it. Using distinct types
//! prevents, e.g., a task id from being used where a message id is expected.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) usize);

        impl $name {
            /// Returns the position of the entity in its [`crate::System`] table.
            pub fn index(self) -> usize {
                self.0
            }

            /// Builds an id from a raw index.
            ///
            /// Intended for tests and for deserializing externally produced
            /// schedules; regular code should use the ids returned by the
            /// [`crate::System`] builder methods.
            pub fn from_index(index: usize) -> Self {
                Self(index)
            }
        }

        /// On the wire an id is its index: a number as a value, the decimal
        /// digits as the key of an object.
        impl crate::json::Json for $name {
            fn write(&self, w: &mut crate::json::Writer<'_>) {
                self.0.write(w);
            }

            fn read(r: &mut crate::json::Reader<'_>) -> Result<Self, crate::json::JsonError> {
                usize::read(r).map(Self)
            }
        }

        impl crate::json::JsonKey for $name {
            fn index(&self) -> usize {
                self.0
            }

            fn from_index(index: usize) -> Self {
                Self(index)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a network node (a device running tasks).
    NodeId,
    "n"
);
define_id!(
    /// Identifier of a task (`τ` in the paper).
    TaskId,
    "tau"
);
define_id!(
    /// Identifier of a message (`m` in the paper).
    MessageId,
    "m"
);
define_id!(
    /// Identifier of an application (`a` in the paper).
    AppId,
    "a"
);
define_id!(
    /// Identifier of an operation mode (`M` in the paper).
    ModeId,
    "M"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(TaskId(0).to_string(), "tau0");
        assert_eq!(MessageId(7).to_string(), "m7");
        assert_eq!(AppId(1).to_string(), "a1");
        assert_eq!(ModeId(2).to_string(), "M2");
    }

    #[test]
    fn ids_round_trip_through_index() {
        let id = TaskId::from_index(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id, TaskId(5));
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(MessageId(1) < MessageId(2));
        assert!(NodeId(0) < NodeId(10));
    }
}

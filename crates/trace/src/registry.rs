//! The stats registry: every counter block is declared once through
//! [`counters!`](crate::counters), each field with its type, doc and merge
//! rule, `sum` (element-wise for arrays, [`Hist`] and [`CpiStack`]) or
//! `max`. The block's merge, JSON writer (fields by name, in declaration
//! order) and JSON reader (any field missing or mistyped refuses the
//! block) are derived from the declaration.

use crate::{CpiLeaf, CpiStack, Hist, Json, HIST_BUCKETS};

/// A value the registry can merge, write and read back: a declared block,
/// or one of the field types a block may hold.
pub trait Counter: Sized {
    /// Folds `o` into `self`: a declared block field by field under each
    /// field's rule, any other value under the `sum` rule.
    fn merge(&mut self, o: &Self);

    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// The value [`Counter::to_json`] wrote; `None` for anything else.
    fn from_json(v: &Json) -> Option<Self>;

    /// `items` merged into one, starting from the default.
    fn merged<'a>(items: impl IntoIterator<Item = &'a Self>) -> Self
    where
        Self: Default + 'a,
    {
        let mut acc = Self::default();
        items.into_iter().for_each(|c| acc.merge(c));
        acc
    }
}

/// The `sum` rule: events counted on either side add up.
pub fn sum<T: Counter>(into: &mut T, o: &T) {
    into.merge(o);
}

/// The `max` rule: a high-water mark keeps the larger side.
pub fn max<T: Ord + Copy>(into: &mut T, o: &T) {
    *into = (*into).max(*o);
}

impl Counter for u64 {
    fn merge(&mut self, o: &u64) {
        *self += o;
    }

    fn to_json(&self) -> Json {
        (*self).into()
    }

    fn from_json(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl<T: Counter, const N: usize> Counter for [T; N] {
    fn merge(&mut self, o: &Self) {
        self.iter_mut().zip(o).for_each(|(a, b)| a.merge(b));
    }

    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect::<Option<Vec<T>>>()?.try_into().ok()
    }
}

impl Counter for Hist {
    fn merge(&mut self, o: &Hist) {
        Hist::merge(self, o);
    }

    /// `{"count":..,"sum":..,"max":..,"buckets":[..]}` with trailing zero
    /// buckets trimmed (bucket edges are fixed, so the index alone
    /// identifies the range).
    fn to_json(&self) -> Json {
        let last = self.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("max", self.max.into()),
            ("buckets", Json::arr(self.buckets[..last].iter().copied())),
        ])
    }

    fn from_json(v: &Json) -> Option<Hist> {
        let int = |k| v.get(k)?.as_u64();
        let written = v.get("buckets")?.as_arr().filter(|b| b.len() <= HIST_BUCKETS)?;
        let mut buckets = [0; HIST_BUCKETS];
        for (b, w) in buckets.iter_mut().zip(written) {
            *b = w.as_u64()?;
        }
        Some(Hist { count: int("count")?, sum: int("sum")?, max: int("max")?, buckets })
    }
}

impl Counter for CpiStack {
    fn merge(&mut self, o: &CpiStack) {
        CpiStack::merge(self, o);
    }

    /// An object keyed by leaf name, every leaf present (zero leaves
    /// included so rows from different runs diff cleanly).
    fn to_json(&self) -> Json {
        Json::obj(CpiLeaf::ALL.map(|l| (l.name(), self.get(l).into())))
    }

    fn from_json(v: &Json) -> Option<CpiStack> {
        let mut s = CpiStack::new();
        for leaf in CpiLeaf::ALL {
            s.add(leaf, v.get(leaf.name())?.as_u64()?);
        }
        Some(s)
    }
}

/// Declares a counter block: a struct whose fields are all public, each
/// written `<rule> <name>: <type>` with `rule` one of `sum` and `max`.
/// The block implements [`Counter`].
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $rule:ident $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $crate::Counter for $name {
            fn merge(&mut self, o: &Self) {
                $($crate::registry::$rule(&mut self.$field, &o.$field);)*
            }

            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([$((stringify!($field), $crate::Counter::to_json(&self.$field)),)*])
            }

            fn from_json(v: &$crate::Json) -> Option<Self> {
                Some($name { $($field: $crate::Counter::from_json(v.get(stringify!($field))?)?,)* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    counters! {
        /// One of every field kind.
        #[derive(Clone, Debug, Default, PartialEq)]
        struct Block {
            /// Summed.
            sum events: u64,
            /// Maxed.
            max high_water: u64,
            /// Summed element-wise.
            sum by_class: [u64; 3],
            /// Merged bucket by bucket.
            sum lat: Hist,
            /// Merged leaf by leaf.
            sum stack: CpiStack,
        }
    }

    fn block(events: u64, high_water: u64, by_class: [u64; 3], sample: u64, leaf: CpiLeaf) -> Block {
        let mut b = Block { events, high_water, by_class, ..Block::default() };
        b.lat.record(sample);
        b.stack.add(leaf, sample);
        b
    }

    #[test]
    fn merge_follows_each_rule_and_the_writer_reads_back() {
        let a = block(2, 9, [1, 0, 4], 3, CpiLeaf::Commit);
        let b = block(5, 7, [0, 6, 1], 100, CpiLeaf::Idle);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!((m.events, m.high_water, m.by_class), (7, 9, [1, 6, 5]));
        let mut lat = a.lat;
        lat.merge(&b.lat);
        assert_eq!(m.lat, lat);
        assert_eq!((m.stack.get(CpiLeaf::Commit), m.stack.get(CpiLeaf::Idle)), (3, 100));
        assert_eq!(Block::merged([&a, &b]), m);

        let mut same = m.clone();
        same.merge(&Block::default());
        assert_eq!(same, m, "merging the default changes nothing");

        let j = m.to_json();
        let prefix = r#"{"events":7,"high_water":9,"by_class":[1,6,5],"lat":{"count":2,"#;
        assert!(j.to_string().starts_with(prefix), "{j}");
        assert_eq!(Block::from_json(&j), Some(m.clone()));
        assert_eq!(Block::from_json(&Json::parse(&j.to_string()).expect("parses")), Some(m));
        assert_eq!(Block::from_json(&Block::default().to_json()), Some(Block::default()));
    }

    #[test]
    fn the_reader_refuses_a_missing_or_mistyped_field() {
        let good = block(1, 1, [1, 1, 1], 1, CpiLeaf::Issue).to_json().to_string();
        for bad in [
            good.replace("\"events\":1,", ""),
            good.replace("\"high_water\":1", "\"high_water\":\"1\""),
            good.replace("[1,1,1]", "[1,1]"),
            good.replace("\"buckets\":[0,1]", "\"buckets\":{}"),
            good.replace("\"issue\":1,", ""),
        ] {
            assert_ne!(bad, good);
            assert_eq!(Block::from_json(&Json::parse(&bad).expect("still JSON")), None, "{bad}");
        }
        let long = good.replace("\"buckets\":[0,1]", &format!("\"buckets\":{:?}", [0; HIST_BUCKETS + 1]));
        assert_eq!(Block::from_json(&Json::parse(&long).expect("still JSON")), None, "more buckets than a Hist has");
    }
}

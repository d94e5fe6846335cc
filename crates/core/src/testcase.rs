//! Formal test cases: platform-independent scripts of population setup
//! and timed stimuli, and the one way to apply them.
//!
//! A test case names instances by *creation ordinal*, so the same script
//! drives the abstract interpreter and any compiled system — the paper's
//! "formal test cases executed against the model to verify that
//! requirements have been properly met", reused unchanged against every
//! implementation. Every executor implements [`Drive`], and
//! [`TestCase::apply`] is the one create → relate → inject sequence they
//! all run.

use std::convert::Infallible;

use crate::value::Value;

/// An executor a test case can be applied to: it creates instances,
/// links them and accepts timed stimuli. Running to quiescence stays
/// with each executor, whose run signatures differ.
pub trait Drive {
    /// The executor's instance handle.
    type Handle: Copy;
    /// The executor's setup error.
    type Error;

    /// Creates an instance of the named class.
    fn create(&mut self, class: &str) -> Result<Self::Handle, Self::Error>;

    /// Links two instances across the named association.
    fn relate(&mut self, a: Self::Handle, b: Self::Handle, assoc: &str) -> Result<(), Self::Error>;

    /// Schedules `event` with `args` for `inst` at `time`.
    fn inject(
        &mut self,
        time: u64,
        inst: Self::Handle,
        event: &str,
        args: Vec<Value>,
    ) -> Result<(), Self::Error>;
}

/// One timed stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    /// Delivery time (abstract ticks on the model; hardware cycles on a
    /// compiled system — only *order* is compared, so the unit mismatch
    /// is deliberate).
    pub time: u64,
    /// Target instance, as an index into the creation list.
    pub inst: usize,
    /// Event name.
    pub event: String,
    /// Event arguments.
    pub args: Vec<Value>,
}

/// An expected observable output (a *requirement* the test case checks).
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Actor that must observe the signal.
    pub actor: String,
    /// Event (or bridge function) name.
    pub event: String,
    /// Expected arguments; `None` = any arguments accepted.
    pub args: Option<Vec<Value>>,
}

/// A platform-independent test case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TestCase {
    /// Test-case name (reports).
    pub name: String,
    /// Classes to instantiate, in order; the index is the instance handle.
    pub creates: Vec<String>,
    /// Links to establish: `(inst a, inst b, association name)`.
    pub relates: Vec<(usize, usize, String)>,
    /// Stimuli, any order (applied in stable time order).
    pub stimuli: Vec<Stimulus>,
    /// Requirements: per-actor expected output sequences. When empty, the
    /// test case is a pure stimulus script.
    pub expectations: Vec<Expectation>,
}

impl TestCase {
    /// Starts an empty test case.
    pub fn new(name: &str) -> TestCase {
        TestCase {
            name: name.to_owned(),
            ..TestCase::default()
        }
    }

    /// Adds an instance of `class`; returns its handle.
    pub fn create(&mut self, class: &str) -> usize {
        self.creates.push(class.to_owned());
        self.creates.len() - 1
    }

    /// Links two instances across `assoc`.
    pub fn relate(&mut self, a: usize, b: usize, assoc: &str) -> &mut Self {
        self.relates.push((a, b, assoc.to_owned()));
        self
    }

    /// Schedules a stimulus.
    pub fn inject(&mut self, time: u64, inst: usize, event: &str, args: Vec<Value>) -> &mut Self {
        self.stimuli.push(Stimulus {
            time,
            inst,
            event: event.to_owned(),
            args,
        });
        self
    }

    /// Adds a requirement: the named actor must observe `event` with the
    /// given arguments, in the order expectations are added per actor.
    pub fn expect(&mut self, actor: &str, event: &str, args: Vec<Value>) -> &mut Self {
        self.expectations.push(Expectation {
            actor: actor.to_owned(),
            event: event.to_owned(),
            args: Some(args),
        });
        self
    }

    /// Adds a requirement that accepts any arguments.
    pub fn expect_any_args(&mut self, actor: &str, event: &str) -> &mut Self {
        self.expectations.push(Expectation {
            actor: actor.to_owned(),
            event: event.to_owned(),
            args: None,
        });
        self
    }

    /// The stimuli in delivery order: by time, ties in the order they
    /// were added.
    pub fn stimuli_in_order(&self) -> Vec<&Stimulus> {
        let mut order: Vec<&Stimulus> = self.stimuli.iter().collect();
        order.sort_by_key(|s| s.time);
        order
    }

    /// Applies the test case to an executor: the creates, then the
    /// relates, then the stimuli in [`TestCase::stimuli_in_order`].
    /// Returns the executor's handle for each creation ordinal.
    ///
    /// # Errors
    ///
    /// Stops at the first step the executor rejects.
    pub fn apply<D: Drive>(&self, target: &mut D) -> Result<Vec<D::Handle>, D::Error> {
        let mut handles = Vec::with_capacity(self.creates.len());
        for class in &self.creates {
            handles.push(target.create(class)?);
        }
        for (a, b, assoc) in &self.relates {
            target.relate(handles[*a], handles[*b], assoc)?;
        }
        for s in self.stimuli_in_order() {
            target.inject(s.time, handles[s.inst], &s.event, s.args.clone())?;
        }
        Ok(handles)
    }

    /// Builds the canonical pipeline test case used by experiments E2-E4:
    /// `stages` chained `Stage<k>` instances fed `feeds` tokens.
    pub fn pipeline(stages: usize, feeds: usize) -> TestCase {
        let mut tc = TestCase::new(&format!("pipeline-{stages}x{feeds}"));
        for k in 0..stages {
            tc.create(&format!("Stage{k}"));
        }
        for k in 0..stages.saturating_sub(1) {
            tc.relate(k, k + 1, &format!("R{}", k + 1));
        }
        for i in 0..feeds {
            tc.inject(i as u64, 0, "Feed", vec![Value::Int(i as i64)]);
        }
        tc
    }
}

/// Recording: applying a script to a test case appends its steps.
impl Drive for TestCase {
    type Handle = usize;
    type Error = Infallible;

    fn create(&mut self, class: &str) -> Result<usize, Infallible> {
        Ok(TestCase::create(self, class))
    }

    fn relate(&mut self, a: usize, b: usize, assoc: &str) -> Result<(), Infallible> {
        TestCase::relate(self, a, b, assoc);
        Ok(())
    }

    fn inject(
        &mut self,
        time: u64,
        inst: usize,
        event: &str,
        args: Vec<Value>,
    ) -> Result<(), Infallible> {
        TestCase::inject(self, time, inst, event, args);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_ordinals() {
        let mut tc = TestCase::new("t");
        let a = tc.create("A");
        let b = tc.create("B");
        assert_eq!((a, b), (0, 1));
        tc.relate(a, b, "R1").inject(5, b, "Go", vec![]);
        assert_eq!(tc.relates.len(), 1);
        assert_eq!(tc.stimuli[0].time, 5);
    }

    #[test]
    fn pipeline_shape() {
        let tc = TestCase::pipeline(4, 3);
        assert_eq!(tc.creates.len(), 4);
        assert_eq!(tc.relates.len(), 3);
        assert_eq!(tc.stimuli.len(), 3);
        assert!(tc.stimuli.iter().all(|s| s.inst == 0));
    }
}

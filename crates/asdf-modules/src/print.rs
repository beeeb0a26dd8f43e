//! The `print` alarm-sink module.
//!
//! The terminal vertex of the paper's DAGs (`BlackBoxAlarm`,
//! `DataNodeAlarm`): consumes fingerpointing alarms and renders them for
//! the administrator. Rendered lines are emitted on a `log` output, where
//! taps (and downstream sinks) observe them.
//!
//! Configuration parameter:
//!
//! * `only_alarms` — render only `Bool(true)` samples (default `true`:
//!   quiet when the cluster is healthy).

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::Value;

/// Alarm sink: formats incoming samples as human-readable alert lines.
#[derive(Debug, Default)]
pub struct Print {
    only_alarms: bool,
    out: Option<PortId>,
}

impl Print {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        Print::default()
    }
}

impl Module for Print {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.only_alarms = ctx.parse_param_or("only_alarms", true)?;
        if ctx.input_slots().is_empty() {
            return Err(ModuleError::BadInputs(
                "print needs at least one input".into(),
            ));
        }
        self.out = Some(ctx.declare_output("log"));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let port = self.out.expect("initialized");
        for (_, env) in &mut ctx.inputs {
            let is_alarm = matches!(env.sample.value, Value::Bool(true));
            if self.only_alarms && !is_alarm {
                continue;
            }
            let line = format!(
                "[{}] {} {}: {}",
                env.sample.timestamp,
                if is_alarm { "ALARM" } else { "info" },
                env.source.origin,
                env.sample.value
            );
            ctx.out.emit(port, line);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::run_source_pipeline;
    use asdf_core::error::ModuleError;
    use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;

    /// Emits alternating true/false alarm flags.
    struct FlagSource {
        port: Option<PortId>,
        n: u64,
    }
    impl Module for FlagSource {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output_with_origin("alarm0", "slave03"));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.n += 1;
            ctx.out.emit(self.port.unwrap(), self.n.is_multiple_of(2));
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_analysis_modules(&mut reg);
        reg.register("flagsource", || Box::new(FlagSource { port: None, n: 0 }));
        reg
    }

    #[test]
    fn only_alarms_filters_healthy_samples() {
        let cfg = "\
[flagsource]
id = src

[print]
id = alarm
input[a] = @src
";
        let out = run_source_pipeline(&registry(), cfg, "alarm", 6);
        assert_eq!(out.len(), 3, "three of six flags are true");
        for env in &out {
            let line = env.sample.value.as_text().unwrap();
            assert!(line.contains("ALARM"));
            assert!(line.contains("slave03"), "origin in line: {line}");
        }
    }

    #[test]
    fn verbose_mode_renders_everything() {
        let cfg = "\
[flagsource]
id = src

[print]
id = alarm
only_alarms = false
input[a] = @src
";
        let out = run_source_pipeline(&registry(), cfg, "alarm", 6);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn print_requires_an_input() {
        use asdf_core::config::Config;
        use asdf_core::dag::Dag;
        let parsed: Config = "[print]\nid = p\n".parse().unwrap();
        assert!(Dag::build(&registry(), &parsed).is_err());
    }
}

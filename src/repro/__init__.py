"""repro — leakage-contract synthesis for RISC-V processor models.

A reproduction of "Synthesizing Hardware-Software Leakage Contracts for
RISC-V Open-Source Processors" (Mohr, Guarnieri, Reineke; DATE 2024).

The package is organized bottom-up:

- :mod:`repro.isa` — RV32IM instruction set: encoding, assembly,
  architectural state, and the instruction-granular executor.
- :mod:`repro.uarch` — cycle-accurate in-order core models (Ibex-like
  and CVA6-like) exposing the RISC-V Formal Interface (RVFI).
- :mod:`repro.attacker` — microarchitectural attacker models.
- :mod:`repro.contracts` — contract atoms, templates, and the RISC-V
  contract template of the paper (IL/RL/ML/AL/BL/DL families).
- :mod:`repro.testgen` — atom-targeted test-case generation and the
  ``GENERATOR_REGISTRY`` of pluggable generation strategies.
- :mod:`repro.evaluation` — attacker distinguishability and
  distinguishing-atom extraction.
- :mod:`repro.synthesis` — ILP-based contract synthesis, metrics, and
  the refinement ranking.
- :mod:`repro.vcd`, :mod:`repro.reporting`, :mod:`repro.experiments` —
  waveforms, tables/figures, and the paper's experiment drivers.
- :mod:`repro.pipeline` — the public entry point: the
  :class:`~repro.pipeline.SynthesisPipeline` builder and the plugin
  registries for cores, attackers, solvers, and templates.
- :mod:`repro.campaign` — resumable grid sweeps: a
  :class:`~repro.campaign.CampaignSpec` expands (core x attacker x
  template x restriction x solver x generator x budget x seed) into
  cells executed through the pipeline with cross-cell dataset reuse
  and a cell-granularity checkpoint manifest.
- :mod:`repro.adaptive` — coverage-guided synthesis loops: rounds of
  generation steered by evaluator feedback, per-round ILP synthesis,
  pluggable stopping rules, and round-granularity checkpointing.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

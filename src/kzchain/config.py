"""Run configuration: a flat key-value file with dotted section names.

The file format is deliberately dumb: one `section.key = value` per line,
`#` comments, sections mirroring module names (protocol, mode_dynamics,
collapse).  CLI flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .collapse import DEFAULT_MASK_THEORY, GridSpec
from .mode_dynamics import DEFAULT_RTOL, check_lambda, check_tolerance
from .protocol import Evolution, QuenchProtocol, Variant, trotter_protocol

__all__ = ["RunConfig", "load_config_file"]

# default tau_q sweep for the large-N continuous reproduction; the source
# figure leaves its quench times unstated
DEFAULT_TAU_SWEEP = [8.0, 16.0, 24.0, 32.0, 48.0, 64.0]


def load_config_file(path) -> Dict[str, str]:
    """Parse `section.key = value` lines into a flat dict."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ValueError(f"{path}:{lineno}: key {key!r} missing section prefix")
        out[key] = value.strip()
    return out


@dataclass
class RunConfig:
    """Everything one pipeline invocation needs."""

    tau_sweep: List[float] = field(default_factory=lambda: list(DEFAULT_TAU_SWEEP))
    variant: Variant = Variant.TO_CRITICAL_POINT
    evolution: Evolution = Evolution.CONTINUOUS
    dt: Optional[float] = None
    steps: Optional[List[int]] = None
    n_sites: int = 120
    lam: float = 0.0
    rtol: float = DEFAULT_RTOL
    grid: GridSpec = field(default_factory=GridSpec)
    mask_threshold: float = DEFAULT_MASK_THEORY
    x_max: Optional[int] = None

    def __post_init__(self):
        self.lam = check_lambda("mode_dynamics.lambda", self.lam)
        self.rtol = check_tolerance("mode_dynamics.rtol", self.rtol)

    def protocols(self) -> List[QuenchProtocol]:
        """One protocol per sweep entry (tau_q values or Trotter step counts)."""
        if self.evolution is Evolution.TROTTER:
            if self.dt is None or not self.steps:
                raise ValueError("Trotter config requires dt and a steps list")
            return [trotter_protocol(self.dt, steps, self.variant)
                    for steps in self.steps]
        if not self.tau_sweep:
            raise ValueError("empty tau_q sweep")
        return [QuenchProtocol(tau_q=t, variant=self.variant) for t in self.tau_sweep]

    def apply_file(self, values: Dict[str, str]) -> "RunConfig":
        """Fold parsed file values into this config (file < CLI precedence:
        call before applying CLI flags).  Grid keys are validated together,
        so their order in the file does not matter."""
        grid = dict(self.grid.__dict__)
        for key, val in values.items():
            section, name = key.split(".", 1)
            if section == "protocol":
                if name == "tau_sweep":
                    self.tau_sweep = [float(x) for x in val.split(",")]
                elif name == "variant":
                    self.variant = Variant(val)
                elif name == "evolution":
                    self.evolution = Evolution(val)
                elif name == "dt":
                    self.dt = float(val)
                elif name == "steps":
                    self.steps = _parse_steps(val)
                else:
                    raise ValueError(f"unknown protocol key {key!r}")
            elif section == "mode_dynamics":
                if name == "n_sites":
                    self.n_sites = int(val)
                elif name == "lambda":
                    self.lam = check_lambda("mode_dynamics.lambda", val)
                elif name == "rtol":
                    self.rtol = check_tolerance("mode_dynamics.rtol", val)
                else:
                    raise ValueError(f"unknown mode_dynamics key {key!r}")
            elif section == "collapse":
                if name == "mask":
                    self.mask_threshold = float(val)
                elif name == "x_max":
                    self.x_max = int(val)
                elif name in ("a_min", "a_max", "b_min", "b_max", "spacing"):
                    grid[name] = float(val)
                else:
                    raise ValueError(f"unknown collapse key {key!r}")
            else:
                raise ValueError(f"unknown config section {section!r}")
        self.grid = GridSpec(**grid)
        return self


def _parse_steps(text: str) -> List[int]:
    """Step counts: comma list and/or a..b ranges ('8..32' is inclusive)."""
    out: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out

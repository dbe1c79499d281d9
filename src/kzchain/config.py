"""Run configuration: one table of settings for `kzchain quench`.

`SETTINGS` maps each `section.key` to its `RunConfig` field, the parser of
its text and its quench flag, if any.  Config files hold one `section.key =
value` per line, with `#` comments.  File entries and flags are both text
and reach `RunConfig` through `RunConfig.from_settings`; flags override
the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .collapse import DEFAULT_MASK_THEORY
from .mode_dynamics import check_nonnegative
from .protocol import Evolution, QuenchProtocol, Variant, trotter_protocol

__all__ = ["RunConfig", "SETTINGS", "load_config_file"]

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


class Setting(NamedTuple):
    """One settable value.  flag takes its text (None: set by switches);
    each (switch, text) pair of switches is a flag that sets text."""

    key: str
    field: str
    parse: Callable[[str], object]
    flag: Optional[str] = None
    help: Optional[str] = None
    switches: Tuple[Tuple[str, str], ...] = ()


SETTINGS: Dict[str, Setting] = {s.key: s for s in (
    Setting("protocol.tau_sweep", "tau_sweep",
            lambda text: [float(x) for x in text.split(",")], "--tau-q",
            "quench time, or for quench a comma list of them"),
    Setting("protocol.variant", "variant", Variant, help="quench through the QCP",
            switches=(("--full", "full_quench"),)),
    Setting("protocol.evolution", "evolution", Evolution,
            switches=(("--continuous", "continuous"), ("--trotter", "trotter"))),
    Setting("protocol.dt", "dt", float, "--dt", "Trotter step duration"),
    Setting("protocol.steps", "steps", _parse_steps, "--steps",
            "Trotter step count, or for quench a sweep such as '8..32' or '6,8,10'"),
    Setting("mode_dynamics.n_sites", "n_sites", int, "--n", "number of sites"),
    Setting("mode_dynamics.lambda", "lam", float, "--lambda", "QND coupling"),
    Setting("collapse.mask", "mask_threshold", float, "--mask",
            "correlator mask threshold, recorded in manifest.json"),
)}
_NAMES = {s.field: f"{s.key} ({s.flag})" if s.flag else s.key
          for s in SETTINGS.values()}


@dataclass
class RunConfig:
    """Everything one pipeline invocation needs."""

    tau_sweep: Optional[List[float]] = None
    variant: Variant = Variant.TO_CRITICAL_POINT
    evolution: Evolution = Evolution.CONTINUOUS
    dt: Optional[float] = None
    steps: Optional[List[int]] = None
    n_sites: int = 120
    lam: float = 0.0
    mask_threshold: float = DEFAULT_MASK_THEORY

    def __post_init__(self):
        for name in ("lam", "mask_threshold"):
            setattr(self, name, check_nonnegative(_NAMES[name], getattr(self, name)))
        if not (self.n_sites >= 2 and self.n_sites % 2 == 0):
            raise ValueError(f"{_NAMES['n_sites']} must be even and >= 2, "
                             f"got {self.n_sites}")
        if self.evolution is Evolution.TROTTER:
            if self.dt is None or self.steps is None:
                raise ValueError(f"a Trotter run needs {_NAMES['dt']} and "
                                 f"{_NAMES['steps']}")
            if not self.steps:
                raise ValueError(f"{_NAMES['steps']} is empty")
            if min(self.steps) < 1:
                raise ValueError(f"{_NAMES['steps']} values must be >= 1, "
                                 f"got {self.steps}")
            if not (math.isfinite(self.dt) and self.dt > 0):
                raise ValueError(f"{_NAMES['dt']} must be finite and > 0, "
                                 f"got {self.dt}")
            if self.tau_sweep is not None:
                raise ValueError(f"{_NAMES['tau_sweep']} does not apply to "
                                 f"Trotter runs (--trotter)")
            if self.lam > 0:
                raise ValueError(f"{_NAMES['lam']} must be 0 in Trotter runs "
                                 f"(--trotter), got {self.lam}")
        else:
            for name in ("dt", "steps"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{_NAMES[name]} applies only to "
                                     f"Trotter runs (--trotter)")
            if self.tau_sweep is None:
                self.tau_sweep = list(DEFAULT_TAU_SWEEP)
            if not self.tau_sweep:
                raise ValueError(f"{_NAMES['tau_sweep']} is empty")
            if not all(math.isfinite(t) and t > 0 for t in self.tau_sweep):
                raise ValueError(f"{_NAMES['tau_sweep']} values must be finite "
                                 f"and > 0, got {self.tau_sweep}")

    @classmethod
    def from_settings(cls, values: Dict[str, str]) -> "RunConfig":
        """The defaults with each `section.key: text` entry of values parsed
        into its field; __post_init__ checks the result."""
        fields = {}
        for key, text in values.items():
            if key not in SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            s = SETTINGS[key]
            try:
                fields[s.field] = s.parse(text)
            except ValueError as exc:
                raise ValueError(f"{_NAMES[s.field]}: cannot parse {text!r} "
                                 f"({exc})") from None
        return cls(**fields)

    def protocols(self) -> List[QuenchProtocol]:
        """One protocol per sweep entry (tau_q values or Trotter step counts)."""
        if self.evolution is Evolution.TROTTER:
            return [trotter_protocol(self.dt, steps, self.variant)
                    for steps in self.steps]
        return [QuenchProtocol(tau_q=t, variant=self.variant) for t in self.tau_sweep]

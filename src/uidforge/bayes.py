"""Bayesian estimation of the annual card-demand intensity.

Model: the observed new-card-relevant event count in year t is
Poisson(beta * exposure_t), with a Gamma(shape, rate) prior on beta.
The posterior is explored with random-walk Metropolis on log(beta);
because the model is conjugate, the exact Gamma posterior is also
available and serves as an independent check on the sampler. Only the
scalar-beta model ships; the likelihood factorization is the extension
point for a parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InitializationError, InsufficientDataError

#: Samples per block of the Metropolis loop: each block of pre-drawn
#: steps is turned into Python floats at once.
_BLOCK = 4096


@dataclass(frozen=True)
class DemandObservation:
    """One year's observed count of demand-relevant events against the
    population base (exposure) that produced them."""

    year: int
    count: int
    exposure: float

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 0:
            raise DomainError(f"count must be a non-negative integer, got {self.count!r}")
        if not (math.isfinite(self.exposure) and self.exposure > 0):
            raise DomainError(f"exposure must be positive, got {self.exposure!r}")


@dataclass(frozen=True)
class PriorSpec:
    """Gamma(shape, rate) prior on beta."""

    shape: float
    rate: float

    def __post_init__(self):
        for name in ("shape", "rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"prior {name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class PosteriorChain:
    """Full Metropolis chain; the first ``burn_in`` samples are excluded
    from summaries."""

    samples: np.ndarray
    seed: int
    acceptance_rate: float
    burn_in: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        if arr.size < 1:
            raise DomainError("a chain needs at least one sample")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise DomainError("acceptance_rate must lie in [0, 1]")

    @property
    def post_burn_in(self) -> np.ndarray:
        return self.samples[self.burn_in :]


@dataclass(frozen=True)
class ChainSummary:
    mean: float
    variance: float
    interval: tuple


def conjugate_posterior(
    data: Sequence[DemandObservation], prior: PriorSpec
) -> tuple[float, float]:
    """Exact Gamma posterior (shape', rate') for the Poisson-exposure
    model: shape + sum of counts, rate + sum of exposures."""
    shape = prior.shape + sum(obs.count for obs in data)
    rate = prior.rate + sum(obs.exposure for obs in data)
    return shape, rate


def log_posterior_unnormalized(
    beta: float, data: Sequence[DemandObservation], prior: PriorSpec
) -> float:
    """Log of prior times likelihood at ``beta``, up to an additive
    constant independent of beta: the Poisson likelihood collapses onto
    the conjugate parameters, (shape' - 1) * log(beta) - rate' * beta
    plus a constant."""
    if not beta > 0:
        raise DomainError(f"beta must be > 0, got {beta!r}")
    shape_eff, rate_eff = conjugate_posterior(data, prior)
    const = sum(obs.count * math.log(obs.exposure) for obs in data)
    return (shape_eff - 1.0) * math.log(beta) - rate_eff * beta + const


def metropolis_sample(
    data: Sequence[DemandObservation],
    prior: PriorSpec,
    n_samples: int,
    seed: int,
    proposal_scale: float = 0.5,
) -> PosteriorChain:
    """Random-walk Metropolis on log(beta) with Gaussian proposals.

    The walk lives on theta = log(beta), so positivity is structural;
    the change of variables adds +theta to the log target. The chain is
    a deterministic function of the seed. The first 10% of samples are
    flagged as burn-in; no adaptive tuning happens, which keeps equal
    seeds bit-reproducible regardless of chain length.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(proposal_scale) and proposal_scale > 0):
        raise DomainError(f"proposal_scale must be finite and > 0, got {proposal_scale}")

    shape_eff, rate_eff = conjugate_posterior(data, prior)

    def log_target(theta: float) -> float:
        # log posterior at exp(theta) plus the log-space Jacobian term;
        # beyond exp overflow the target is effectively -inf anyway
        if theta > 700.0:
            return -math.inf
        return shape_eff * theta - rate_eff * math.exp(theta)

    beta0 = prior.shape / prior.rate
    if not (math.isfinite(beta0) and beta0 > 0):
        raise InitializationError(
            f"starting point beta = shape / rate = {beta0!r} is not finite and > 0"
        )
    theta = math.log(beta0)
    current = log_target(theta)
    if not math.isfinite(current):
        raise InitializationError(
            f"log posterior is not finite at the starting point beta={beta0}"
        )

    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n_samples) * proposal_scale
    log_unifs = np.log(rng.random(n_samples))

    # the walk runs on Python floats, converted one block at a time so
    # that no list as long as the chain is ever held
    samples = np.empty(n_samples)
    accepted = 0
    exp = math.exp
    for lo in range(0, n_samples, _BLOCK):
        block = []
        for step, log_unif in zip(
            steps[lo : lo + _BLOCK].tolist(), log_unifs[lo : lo + _BLOCK].tolist()
        ):
            proposal = theta + step
            # log_target, inlined: a call would cost more than the step
            if proposal > 700.0:
                cand = -math.inf
            else:
                cand = shape_eff * proposal - rate_eff * exp(proposal)
            if log_unif < cand - current:
                theta = proposal
                current = cand
                accepted += 1
            block.append(theta)
        samples[lo : lo + len(block)] = block
    np.exp(samples, out=samples)

    return PosteriorChain(
        samples=samples,
        seed=seed,
        acceptance_rate=accepted / n_samples,
        burn_in=n_samples // 10,
    )


def summarize_chain(chain: PosteriorChain) -> ChainSummary:
    """Mean, variance and central 95% interval of the post-burn-in
    samples."""
    kept = chain.post_burn_in
    if kept.size < 100:
        raise InsufficientDataError(
            f"need at least 100 post-burn-in samples, have {kept.size}"
        )
    lo, hi = np.quantile(kept, [0.025, 0.975])
    return ChainSummary(
        mean=float(np.mean(kept)),
        variance=float(np.var(kept, ddof=1)),
        interval=(float(lo), float(hi)),
    )

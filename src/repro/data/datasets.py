"""Synthetic dataset substrates.

The paper evaluates on raw ImageNet JPEGs and the WMT'16 DE-EN corpus;
neither is available offline. These generators produce item streams with
the same *cost-relevant* statistics — JPEG byte size and decode
difficulty for images, token-length distributions for sentences — which
is all the scheduling experiments consume (the pixels themselves never
matter to a scheduler).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class ImageRecord:
    """One synthetic ImageNet sample."""

    index: int
    jpeg_bytes: int
    width: int
    height: int
    label: int

    @property
    def decode_cost_scale(self) -> float:
        """Decode cost relative to the average image (pixel-count ratio)."""
        return (self.width * self.height) / (500 * 375)


@dataclass(frozen=True)
class SentenceRecord:
    """One synthetic WMT'16 DE-EN pair."""

    index: int
    source_tokens: int
    target_tokens: int


class SyntheticImageNet:
    """ImageNet-like stream: lognormal JPEG sizes, varied resolutions.

    Statistics follow the well-known ImageNet profile: mean JPEG size
    ~110 KB, typical resolution around 500x375 with wide spread.
    """

    MEAN_JPEG_BYTES = 110_000
    CLASSES = 1000

    def __init__(self, rng: RngRegistry, name: str = "imagenet") -> None:
        self._stream = rng.stream(f"data:{name}")

    def sample(self, index: int) -> ImageRecord:
        stream = self._stream
        jpeg_bytes = int(min(
            2_000_000,
            max(5_000, stream.lognormvariate(math.log(100_000), 0.55))))
        width = max(64, int(stream.gauss(500, 120)))
        height = max(64, int(stream.gauss(375, 90)))
        return ImageRecord(
            index=index, jpeg_bytes=jpeg_bytes, width=width, height=height,
            label=stream.randrange(self.CLASSES))

    def batches(self, batch_size: int, n_batches: int
                ) -> Iterator[List[ImageRecord]]:
        if batch_size <= 0 or n_batches <= 0:
            raise ValueError("batch_size and n_batches must be positive")
        counter = 0
        for _ in range(n_batches):
            batch = [self.sample(counter + offset)
                     for offset in range(batch_size)]
            counter += batch_size
            yield batch


class SyntheticWMT16:
    """WMT'16-like sentence pairs: ~30-token mean, long-tailed lengths."""

    MEAN_TOKENS = 30

    def __init__(self, rng: RngRegistry, name: str = "wmt16") -> None:
        self._stream = rng.stream(f"data:{name}")

    def sample(self, index: int) -> SentenceRecord:
        stream = self._stream
        source = max(3, min(100, int(stream.lognormvariate(
            math.log(self.MEAN_TOKENS), 0.45))))
        ratio = stream.gauss(1.05, 0.15)
        target = max(3, min(120, int(source * max(0.5, ratio))))
        return SentenceRecord(index=index, source_tokens=source,
                              target_tokens=target)

    def batches(self, batch_size: int, n_batches: int
                ) -> Iterator[List[SentenceRecord]]:
        if batch_size <= 0 or n_batches <= 0:
            raise ValueError("batch_size and n_batches must be positive")
        counter = 0
        for _ in range(n_batches):
            batch = [self.sample(counter + offset)
                     for offset in range(batch_size)]
            counter += batch_size
            yield batch


def mean_decode_scale(records: List[ImageRecord]) -> float:
    """Average decode-cost scale of a batch (pipeline calibration)."""
    if not records:
        raise ValueError("empty batch")
    return sum(r.decode_cost_scale for r in records) / len(records)

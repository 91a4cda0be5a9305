#pragma once
// Binary serialization of pipeline result payloads for the persistence
// layer: MixedSweepResult (the store's cache unit) and JobReport (the batch
// manifest's checkpoint unit).
//
// The format is a straight little-endian field walk — no schema, no
// varints — because the record framing (store/record) already carries the
// format version and a checksum: a layout change bumps
// kStoreFormatVersion and old records quarantine as BadVersion before a
// byte of payload is decoded.  Each persisted type has ONE walk, its field
// list in wire order, templated on the direction: the writer and the
// reader run the same list, so they cannot drift apart.  Deserialization
// is nevertheless fully bounds-checked (a checksum-valid record could
// still have been written by a buggy producer): the reader throws
// std::runtime_error on any overrun, bool above 1, out-of-range enum,
// set bit-vector tail bits, trailing bytes, or vector count above the
// remaining bytes divided by the element's minimum wire size (the size of
// a default-constructed element run through the same walk), and the store
// converts that throw into a quarantine + miss.
//
// Serialization is deterministic: the same in-memory value always produces
// the same bytes.  Combined with the pipeline's bit-identical determinism
// contract this makes serialized equality a usable differential oracle —
// strip_volatile() zeroes the wall-clock/attempt/cache fields and the
// kill-and-resume test compares resumed and cold batches byte for byte.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "pipeline/job.hpp"
#include "tpg/sweep.hpp"

namespace bist {

std::vector<std::uint8_t> serialize_sweep(const MixedSweepResult& r);
/// Throws std::runtime_error on malformed bytes.
MixedSweepResult deserialize_sweep(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> serialize_job_report(const JobReport& r);
/// Throws std::runtime_error on malformed bytes.
JobReport deserialize_job_report(std::span<const std::uint8_t> bytes);

/// Zero every wall-clock-shaped field (stage/job seconds, solve breakdowns,
/// retry attempt counts, cache outcomes) so two reports that did the same
/// *work* serialize identically regardless of how fast they ran or where
/// their data came from.  The kill-and-resume differential and the manifest
/// equality checks compare serialize_job_report(strip_volatile(...)) bytes.
void strip_volatile(JobReport& r);

}  // namespace bist

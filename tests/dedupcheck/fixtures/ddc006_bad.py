"""Violates DDC006: pokes the dedup counters directly."""


class Dedup:
    def _ingest_chunks(self, batch, digests):
        for chunk in batch:
            self._duplicate_chunks += 1
            self._duplicate_bytes += chunk.size
            self._in_dup_run = True

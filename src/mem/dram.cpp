#include "mem/dram.hpp"

namespace smache::mem {

DramModel::DramModel(sim::Simulator& sim, const std::string& path,
                     std::size_t size_words, const DramConfig& config)
    : config_(config),
      store_(size_words, 0),
      read_req_(sim, path + "/read_req", config.req_queue_depth),
      read_data_(sim, path + "/read_data", config.data_queue_depth),
      write_req_(sim, path + "/write_req", config.write_queue_depth),
      transit_(config.read_latency, 0),
      sim_(sim),
      mreg_(&sim.metrics()),
      s_backpressure_(
          mreg_->slot(path, "/stall/backpressure",
                      obs::MetricKind::Counter)),
      s_row_wait_(
          mreg_->slot(path, "/stall/row_wait", obs::MetricKind::Counter)),
      slog_(&sim.spans()),
      read_lane_(slog_->lane(path, "read txn")) {
  SMACHE_REQUIRE(size_words >= 1);
  SMACHE_REQUIRE_MSG(config.read_latency >= 1,
                     "read_latency must be >= 1 (transit stage count)");
  set_obs_name(path);
  sim.add_module(this);
}

void DramModel::charge_row(std::uint64_t addr) {
  if (!row_model_on()) return;
  const auto row = static_cast<std::int64_t>(row_of(addr));
  if (row != open_row_) {
    wait_issue_ += config_.row_miss_cycles;
    open_row_ = row;
    ++stats_.row_misses;
  } else {
    ++stats_.row_hits;
  }
}

// Starts on a 64-byte boundary, like the other per-cycle bodies: see
// SmacheTop::eval (rtl/smache_top.cpp) for the measurement.
[[gnu::aligned(64)]] void DramModel::eval() {
  // Inert: nothing queued, nothing in flight, no stall burst draining. A
  // full eval would only rotate bubbles round the transit line (no word is
  // in flight), which is unobservable, so freezing the line while inert
  // is exact. (An injected stall burst is not inert: it counts
  // injected_stall_cycles per cycle, which is observable through
  // stats().)
  if (stall_left_ == 0 && idle()) return;

  // ---- write engine (posted, one per cycle) ----
  bool wrote = false;
  if (write_req_.can_pop()) {
    const DramWriteReq w = write_req_.pop();
    SMACHE_REQUIRE_MSG(w.addr < store_.size(),
                       "DRAM write request out of range");
    store_[w.addr] = w.data;
    ++stats_.words_written;
    wrote = true;
  }

  // ---- injected stall: freeze the read path this cycle ----
  if (stall_left_ > 0) {
    --stall_left_;
    ++stats_.injected_stall_cycles;
    return;
  }

  // ---- delivery stage: head of the transit line -> read_data ----
  std::uint64_t& head = transit_[transit_head_];
  if ((head & kFetched) != 0) {
    if (!read_data_.can_push()) {
      // Back-pressure from the design: the whole read pipe holds.
      mreg_->count(s_backpressure_);
      return;
    }
    // Delayed-completion fault: the head word was fetched on time but
    // completes late. The decision is taken once per head word (however
    // many cycles it then waits); while held, the whole in-order read pipe
    // holds — exactly like design back-pressure, so correctness cannot
    // depend on it. inflight_words_ > 0 keeps idle() false throughout, so
    // injected_delay_cycles counts every held cycle.
    if (!head_delay_decided_ && config_.delay_every != 0) {
      head_delay_decided_ = true;
      if (++words_since_delay_ >= config_.delay_every) {
        words_since_delay_ = 0;
        delay_left_ = config_.delay_cycles;
      }
    }
    if (delay_left_ > 0) {
      --delay_left_;
      ++stats_.injected_delay_cycles;
      return;
    }
    read_data_.push(static_cast<word_t>(head));
    ++stats_.words_read;
    ++stats_.read_busy_cycles;
    --inflight_words_;
    head_delay_decided_ = false;
    if (slog_->enabled() && !pending_reads_.empty()) {
      // The delivered word always belongs to the oldest open transaction
      // (strict FIFO service); closing it here stamps the full
      // request-pop -> last-word-delivered lifetime.
      PendingRead& p = pending_reads_.front();
      if (--p.words_left == 0) {
        slog_->add(read_lane_, p.begin, sim_.now() + 1);
        pending_reads_.pop_front();
      }
    }
  }

  // ---- issue stage: one word per cycle when the bus is free ----
  std::uint64_t issued = 0;  // a bubble unless a word issues
  const bool bus_free = !config_.shared_bus || !wrote;
  if (wait_issue_ > 0) {
    --wait_issue_;
    mreg_->count(s_row_wait_);
  } else if (bus_free) {
    if (burst_left_ == 0 && read_req_.can_pop()) {
      const DramReadReq req = read_req_.pop();
      SMACHE_REQUIRE_MSG(req.burst >= 1, "zero-length DRAM burst");
      SMACHE_REQUIRE_MSG(req.addr + req.burst <= store_.size(),
                         "DRAM read request out of range");
      cur_addr_ = req.addr;
      burst_left_ = req.burst;
      ++stats_.read_requests;
      charge_row(cur_addr_);
      if (slog_->enabled())
        pending_reads_.push_back(PendingRead{sim_.now(), req.burst});
    }
    if (burst_left_ > 0 && wait_issue_ == 0) {
      issued = kFetched | store_[cur_addr_];
      ++inflight_words_;
      --burst_left_;
      ++cur_addr_;
      // Mid-burst row crossing charges an activation before the next word.
      if (burst_left_ > 0 && row_model_on() &&
          cur_addr_ % config_.row_words == 0) {
        charge_row(cur_addr_);
      }
      // Failure injection: periodic stall bursts.
      if (config_.stall_every != 0 &&
          ++words_since_stall_ >= config_.stall_every) {
        words_since_stall_ = 0;
        stall_left_ = config_.stall_cycles;
      }
      // Fault injection: stall storms compose ADDITIVELY with the periodic
      // hook above — a storm landing on a stall cycle extends it.
      if (config_.storm_every != 0 &&
          ++words_since_storm_ >= config_.storm_every) {
        words_since_storm_ = 0;
        stall_left_ += config_.storm_cycles;
      }
    }
  }
  head = issued;
  if (++transit_head_ == transit_.size()) transit_head_ = 0;
}

}  // namespace smache::mem

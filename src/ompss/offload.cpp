#include "ompss/offload.hpp"

#include "util/error.hpp"

namespace deep::ompss {

namespace {

/// Fixed-size request header shipped ahead of the payload.
struct OffloadHeader {
  char name[48] = {};
  std::int64_t payload_bytes = 0;
  std::int64_t reserved = 0;
};
static_assert(sizeof(OffloadHeader) == 64);

constexpr const char* kShutdownKernel = "__shutdown";

OffloadHeader make_header(const std::string& kernel, std::int64_t bytes) {
  DEEP_EXPECT(kernel.size() < sizeof(OffloadHeader::name),
              "offload: kernel name too long");
  OffloadHeader h;
  std::memcpy(h.name, kernel.data(), kernel.size());
  h.payload_bytes = bytes;
  return h;
}

std::span<const std::byte> header_bytes(const OffloadHeader& h) {
  return std::as_bytes(std::span<const OffloadHeader>(&h, 1));
}

std::span<std::byte> header_bytes(OffloadHeader& h) {
  return std::as_writable_bytes(std::span<OffloadHeader>(&h, 1));
}

}  // namespace

void KernelRegistry::add(std::string name, OffloadKernel kernel) {
  DEEP_EXPECT(static_cast<bool>(kernel), "KernelRegistry: empty kernel");
  DEEP_EXPECT(name != kShutdownKernel, "KernelRegistry: reserved name");
  const auto [it, inserted] = kernels_.emplace(std::move(name), std::move(kernel));
  DEEP_EXPECT(inserted, "KernelRegistry: kernel already registered");
}

const OffloadKernel& KernelRegistry::get(const std::string& name) const {
  auto it = kernels_.find(name);
  DEEP_EXPECT(it != kernels_.end(),
              "KernelRegistry: unknown kernel '" + name + "'");
  return it->second;
}

bool KernelRegistry::contains(const std::string& name) const {
  return kernels_.contains(name);
}

std::vector<std::byte> offload_invoke(mpi::Mpi& mpi,
                                      const mpi::Intercomm& booster,
                                      const std::string& kernel,
                                      std::span<const std::byte> input) {
  // Registry lookup per invoke is fine here: an offload is a whole kernel
  // round-trip to the booster, nowhere near the message hot path.
  obs::Counter m_offloads;
  obs::Histogram m_offload_ns;
  if (auto* m = mpi.system().engine().metrics()) {
    m_offloads = m->counter("ompss.offloads");
    m_offload_ns = m->histogram("ompss.offload_ns");
  }
  const sim::TimePoint begin = mpi.ctx().now();
  const OffloadHeader header =
      make_header(kernel, static_cast<std::int64_t>(input.size()));
  mpi.send_bytes(booster, 0, kOffloadHeaderTag, header_bytes(header));
  if (!input.empty())
    mpi.send_bytes(booster, 0, kOffloadPayloadTag, input);

  std::int64_t reply_bytes = 0;
  mpi.recv_bytes(booster, 0, kOffloadReplyHdrTag,
                 std::as_writable_bytes(std::span<std::int64_t>(&reply_bytes, 1)));
  std::vector<std::byte> reply(static_cast<std::size_t>(reply_bytes));
  if (reply_bytes > 0)
    mpi.recv_bytes(booster, 0, kOffloadReplyTag, reply);
  m_offloads.add(1);
  m_offload_ns.record((mpi.ctx().now() - begin).ps / 1000);
  return reply;
}

void offload_shutdown(mpi::Mpi& mpi, const mpi::Intercomm& booster) {
  const OffloadHeader header = make_header(kShutdownKernel, 0);
  mpi.send_bytes(booster, 0, kOffloadHeaderTag, header_bytes(header));
}

void offload_server(mpi::Mpi& mpi, const KernelRegistry& registry) {
  const auto& parent = mpi.parent();
  DEEP_EXPECT(parent.has_value(),
              "offload_server: world has no parent intercommunicator");
  const bool leader = mpi.rank() == 0;

  // One input buffer for the server's lifetime: every byte of it is
  // overwritten by the payload receive or bcast, so a fresh zero-filled
  // vector per request would only cost host time.
  std::vector<std::byte> input;
  for (;;) {
    OffloadHeader header;
    mpi::Rank requester = 0;
    if (leader) {
      const auto st = mpi.recv_bytes(*parent, mpi::kAnySource,
                                     kOffloadHeaderTag, header_bytes(header));
      requester = st.source;
      input.resize(static_cast<std::size_t>(header.payload_bytes));
      if (header.payload_bytes > 0)
        mpi.recv_bytes(*parent, requester, kOffloadPayloadTag, input);
    }
    // Distribute the request to the whole booster world.
    mpi.bcast<std::byte>(mpi.world(), 0, header_bytes(header));
    std::int64_t in_bytes = header.payload_bytes;
    if (!leader) input.resize(static_cast<std::size_t>(in_bytes));
    if (in_bytes > 0) mpi.bcast<std::byte>(mpi.world(), 0, input);

    const std::string kernel(header.name);
    if (kernel == kShutdownKernel) return;

    std::vector<std::byte> reply = registry.get(kernel)(input, mpi);

    if (leader) {
      const std::int64_t reply_bytes = static_cast<std::int64_t>(reply.size());
      mpi.send_bytes(*parent, requester, kOffloadReplyHdrTag,
                     std::as_bytes(std::span<const std::int64_t>(&reply_bytes, 1)));
      if (reply_bytes > 0)
        mpi.send_bytes(*parent, requester, kOffloadReplyTag, reply);
    }
  }
}

TaskId offload_task(Runtime& runtime, mpi::Mpi& mpi,
                    const mpi::Intercomm& booster, std::string kernel,
                    std::vector<Region> regions,
                    std::function<std::vector<std::byte>()> input,
                    std::function<void(std::vector<std::byte>)> on_reply) {
  DEEP_EXPECT(static_cast<bool>(input), "offload_task: input builder missing");
  return runtime.submit_external(
      "offload:" + kernel, std::move(regions),
      [&mpi, &booster, kernel = std::move(kernel), input = std::move(input),
       on_reply = std::move(on_reply)] {
        auto reply = offload_invoke(mpi, booster, kernel, input());
        if (on_reply) on_reply(std::move(reply));
      });
}

}  // namespace deep::ompss

#include "sip/outbound_proxy.hpp"

namespace siphoc::sip {

OutboundProxy::OutboundProxy(net::Host& host, OutboundProxyConfig config)
    : host_(host),
      config_(config),
      log_(host.sim().ctx().log(), "obproxy", host.name()),
      transport_(host, net::kSipPort) {
  transport_.set_handler([this](Message m, net::Endpoint from) {
    on_message(std::move(m), from);
  });
}

void OutboundProxy::on_message(Message message, net::Endpoint from) {
  if (message.is_response()) {
    // Pop our Via and retrace.
    auto vias = message.vias();
    if (vias.empty() ||
        vias.front().host != host_.wired_address().to_string()) {
      ++stats_.dropped;
      return;
    }
    message.pop_via();
    const auto next = message.top_via();
    if (!next) {
      ++stats_.dropped;
      return;
    }
    if (const auto dst = next->response_endpoint()) {
      ++stats_.responses_relayed;
      transport_.send(message, *dst);
    } else {
      ++stats_.dropped;
    }
    return;
  }

  const int mf = message.max_forwards();
  if (mf <= 0) {
    ++stats_.dropped;
    if (message.method() != kAck) {
      Message response = Message::response_to(message, 483);
      if (!transport_.send_response(response)) {
        transport_.send(response, from);
      }
    }
    return;
  }
  message.set_max_forwards(mf - 1);

  Via via;
  via.host = host_.wired_address().to_string();
  via.port = net::kSipPort;
  via.params["branch"] =
      std::string(kBranchCookie) + "ob" + std::to_string(++branch_counter_);
  message.push_via(via);
  ++stats_.requests_relayed;
  log_.info("relaying ", message.summary(), " to ",
            config_.next_hop.to_string());
  transport_.send(message, config_.next_hop);
}

}  // namespace siphoc::sip

// UsbHostProxy: the USB host-controller proxy.
//
// Figure 5 reports *zero* lines of device-class-specific kernel code for the
// USB host class: everything the HCD driver needs — interrupt forwarding,
// interrupt_ack, DMA allocation, MMIO — is provided by the SUD core. The
// only kernel-visible traffic a USB function driver generates in this model
// is input reports, handled by one generic downcall. This class is
// intentionally as close to empty as the paper claims.

#ifndef SUD_SRC_SUD_PROXY_USB_H_
#define SUD_SRC_SUD_PROXY_USB_H_

#include "src/kern/kernel.h"
#include "src/sud/proto.h"
#include "src/sud/safe_pci.h"

namespace sud {

class UsbHostProxy {
 public:
  UsbHostProxy(kern::Kernel* kernel, SudDeviceContext* ctx) : kernel_(kernel), ctx_(ctx) {
    ctx_->set_downcall_handler([this](UchanMsg& msg, uint16_t queue) {
      switch (msg.opcode) {
        case kUsbDownKeyEvent:
          kernel_->input().SubmitKey(static_cast<uint8_t>(msg.args[0]));
          msg.error = 0;
          return;
        case kOpInterruptAck:
          msg.error = static_cast<int32_t>(ctx_->InterruptAck(queue).code());
          return;
        default:
          msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
          return;
      }
    });
  }

 private:
  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_PROXY_USB_H_
